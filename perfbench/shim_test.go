package main

import (
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/envelope"
	"inca/internal/query"
	"inca/internal/rrd"
)

// The depot serves ETags only when its cache implements depot.Versioned,
// so the tracing shim must keep that interface visible.
func TestTraceCacheForwardsVersioned(t *testing.T) {
	tr := newTracer(16)
	inner := depot.NewStreamCache()
	c := traceCache(inner, tr, 0)
	v, ok := c.(depot.Versioned)
	if !ok {
		t.Fatal("shim over a Versioned cache does not implement depot.Versioned")
	}
	d := depot.NewWithOptions(c, depot.Options{})
	if _, err := d.Store(branch.MustParse("probe=p000,site=s00,vo=bench"), []byte("<r/>")); err != nil {
		t.Fatal(err)
	}
	gen, ok := d.CacheGeneration()
	if !ok || gen != inner.Generation() || v.Generation() != inner.Generation() || gen == 0 {
		t.Fatalf("generation through the shim: %d %v, inner %d", gen, ok, inner.Generation())
	}
	if len(tr.spans) != 1 || tr.spans[0].layer != lCacheUpdate {
		t.Fatalf("spans = %+v, want one cache.update", tr.spans)
	}
	// ETags reach HTTP consumers through the shim.
	rec := httptest.NewRecorder()
	query.NewServer(d).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/cache", nil))
	if rec.Code != 200 || rec.Header().Get("ETag") == "" {
		t.Fatalf("GET /cache: status %d, ETag %q", rec.Code, rec.Header().Get("ETag"))
	}
}

// A cache without the optional interface must not gain it from the shim:
// the depot would then serve ETags the cache cannot back.
func TestTraceCacheAddsNothing(t *testing.T) {
	c := traceCache(depot.NullCache{}, newTracer(16), 0)
	if _, ok := c.(depot.Versioned); ok {
		t.Fatal("shim over NullCache claims depot.Versioned")
	}
	d := depot.NewWithOptions(c, depot.Options{})
	if _, ok := d.CacheGeneration(); ok {
		t.Fatal("depot reports a generation for an unversioned cache")
	}
}

// Generated reports have the exact requested size, carry their sequence
// number, and archive their value under the benchmark policy: each report
// closes one archive row holding exactly that value.
func TestGeneratedReportsArchive(t *testing.T) {
	s := &spec{name: "t", sites: 1, probes: 2, sizes: []int{851, 9257}}
	l, err := newLedger(s)
	if err != nil {
		t.Fatal(err)
	}
	d := depot.NewWithOptions(depot.NewStreamCache(), depot.Options{})
	if err := d.AddPolicy(depot.Policy{Name: policyName, Prefix: branch.MustParse("vo=bench"), Path: policyPath,
		Archive: rrd.ArchivalPolicy{Step: step, Granularity: 1, History: time.Hour}}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 6; i++ {
		b := i % 2
		seq := l.reserve(1)
		data := l.make(b, seq, rng)
		if len(data) != s.sizes[b] {
			t.Fatalf("report is %d bytes, want %d", len(data), s.sizes[b])
		}
		if got, ok := seqOf(data); !ok || got != seq {
			t.Fatalf("seqOf = %d %v, want %d", got, ok, seq)
		}
		env, err := envelope.Encode(envelope.Body, branch.MustParse(l.names[b]), data)
		if err != nil {
			t.Fatal(err)
		}
		if reqOf(env) != seq+1 {
			t.Fatalf("reqOf(envelope) = %d, want %d", reqOf(env), seq+1)
		}
		if _, err := d.StoreEnvelope(env); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats().Archive
	if st.Matched != 6 || st.Applied != 6 {
		t.Fatalf("archive applied %d of %d matched", st.Applied, st.Matched)
	}
	for b := 0; b < 2; b++ {
		series, err := d.FetchArchive(branch.MustParse(l.names[b]), policyName, rrd.Average,
			baseGMT, baseGMT.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		last := series.Points[len(series.Points)-1]
		if want := baseGMT.Add(2 * step); !last.Time.Equal(want) || last.Values[0] != float64(l.lastVal[b]) {
			t.Fatalf("branch %d: last row %v = %v, want %v = %d", b, last.Time, last.Values[0], want, l.lastVal[b])
		}
		stored, err := d.Cache().Reports(branch.MustParse(l.names[b]))
		if err != nil || len(stored) != 1 || string(stored[0].XML) != string(l.last[b]) {
			t.Fatalf("branch %d: cache does not hold the last report verbatim", b)
		}
	}
}
