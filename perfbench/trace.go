package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"inca/internal/branch"
	"inca/internal/controller"
	"inca/internal/depot"
	"inca/internal/wire"
)

// Layers a span can belong to. Spans are recorded by the shims below at
// the seams the pipeline's constructors accept, and by the generator
// around its own calls.
const (
	lWireBatch        uint8 = iota // generator: one agent batch, send to ack
	lClientRead                    // generator: one HTTP read
	lControllerHandle              // wire.Handler given to wire.ServeOptions
	lDepotStore                    // controller.DepotClient
	lCacheUpdate                   // depot.Cache given to the depot
	lCacheQuery
	lCacheReports
	lCacheDump
	lQueryCache // http.Handler of query.Server
	lQueryReports
	lQueryArchive
	lQueryOther
	lRouterHandle // wire.Handler of federation.Router
	lFedCache     // http.Handler of query.Federated
	lFedReports
	lFedOther
	lShardCall // http.RoundTripper inside query.FederatedOptions.Client
	numLayers
)

var layerNames = [numLayers]string{
	"wire.batch", "client.read", "controller.handle", "depot.store",
	"cache.update", "cache.query", "cache.reports", "cache.dump",
	"query.cache", "query.reports", "query.archive", "query.other",
	"router.handle", "fed.cache", "fed.reports", "fed.other", "fed.shard_call",
}

// span is one timed call. Spans of one report share req (its sequence
// number plus one); read spans are linked to their parents by time
// containment, which is exact because each workload has one reader.
type span struct {
	start, end int64 // ns since epoch
	req        uint64
	n          uint16 // wire.batch: reports req..req+n-1; HTTP spans: 1 if conditional
	layer      uint8
	shard      uint8 // 0: the single depot or the router tier; i+1: shard i
	status     uint16
	bytes      int64
	// depot.store: the Receipt's phase timings, ns
	unpack, insert, archive int64
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, which is how the untraced mode runs the
// same generator code.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	max     int
	dropped int64
	nacks   atomic.Int64
}

func newTracer(max int) *tracer { return &tracer{max: max, spans: make([]span, 0, 1<<16)} }

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < t.max {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// reqOf finds the report sequence number in raw or envelope-escaped
// report bytes; 0 means none.
func reqOf(b []byte) uint64 {
	if seq, ok := seqOf(b); ok {
		return seq + 1
	}
	i := bytes.Index(b, []byte("&lt;seq&gt;"))
	if i < 0 || i+len("&lt;seq&gt;")+seqDigits > len(b) {
		return 0
	}
	v, err := strconv.ParseUint(string(b[i+len("&lt;seq&gt;"):i+len("&lt;seq&gt;")+seqDigits]), 10, 64)
	if err != nil {
		return 0
	}
	return v + 1
}

// tracedCache times every call into a depot.Cache.
type tracedCache struct {
	inner depot.Cache
	tr    *tracer
	shard uint8
}

// versionedCache is tracedCache over a cache that implements
// depot.Versioned. The depot type-asserts Versioned to serve ETags, so the
// shim must forward it or conditional reads silently stop answering 304.
type versionedCache struct {
	*tracedCache
	v depot.Versioned
}

func (c *versionedCache) Generation() uint64 { return c.v.Generation() }

// traceCache wraps inner, forwarding every optional interface the depot
// type-asserts.
func traceCache(inner depot.Cache, tr *tracer, shard uint8) depot.Cache {
	c := &tracedCache{inner: inner, tr: tr, shard: shard}
	if v, ok := inner.(depot.Versioned); ok {
		return &versionedCache{c, v}
	}
	return c
}

func (c *tracedCache) Update(id branch.ID, reportXML []byte) (bool, error) {
	t0 := now()
	added, err := c.inner.Update(id, reportXML)
	c.tr.add(span{layer: lCacheUpdate, shard: c.shard, start: t0, end: now(), req: reqOf(reportXML)})
	return added, err
}

func (c *tracedCache) Query(id branch.ID) ([]byte, bool, error) {
	t0 := now()
	b, ok, err := c.inner.Query(id)
	c.tr.add(span{layer: lCacheQuery, shard: c.shard, start: t0, end: now(), bytes: int64(len(b))})
	return b, ok, err
}

func (c *tracedCache) Reports(prefix branch.ID) ([]depot.Stored, error) {
	t0 := now()
	st, err := c.inner.Reports(prefix)
	c.tr.add(span{layer: lCacheReports, shard: c.shard, start: t0, end: now(), n: uint16(min(len(st), 65535))})
	return st, err
}

func (c *tracedCache) Dump() []byte {
	t0 := now()
	b := c.inner.Dump()
	c.tr.add(span{layer: lCacheDump, shard: c.shard, start: t0, end: now(), bytes: int64(len(b))})
	return b
}

func (c *tracedCache) Size() int  { return c.inner.Size() }
func (c *tracedCache) Count() int { return c.inner.Count() }

// tracedDepot is the controller.DepotClient shim.
type tracedDepot struct {
	d     controller.DepotClient
	tr    *tracer
	shard uint8
}

func (t *tracedDepot) StoreEnvelope(data []byte) (depot.Receipt, error) {
	t0 := now()
	rec, err := t.d.StoreEnvelope(data)
	t.tr.add(span{layer: lDepotStore, shard: t.shard, start: t0, end: now(), req: reqOf(data),
		unpack: int64(rec.Unpack), insert: int64(rec.Insert), archive: int64(rec.Archive)})
	return rec, err
}

// traceHandler times a wire.Handler and counts its nacks.
func traceHandler(h wire.Handler, tr *tracer, layer, shard uint8) wire.Handler {
	return func(m *wire.Message, remote string) *wire.Ack {
		t0 := now()
		ack := h(m, remote)
		tr.add(span{layer: layer, shard: shard, start: t0, end: now(), req: reqOf(m.Report)})
		if ack != nil && !ack.OK {
			tr.nacks.Add(1)
		}
		return ack
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// traceHTTP times every request of a query handler except the long-lived
// /feed streams, naming each span by its path (other paths share other).
func traceHTTP(h http.Handler, tr *tracer, layers map[string]uint8, other, shard uint8) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/feed" {
			h.ServeHTTP(w, r)
			return
		}
		layer, ok := layers[r.URL.Path]
		if !ok {
			layer = other
		}
		var conditional uint16
		if r.Header.Get("If-None-Match") != "" {
			conditional = 1
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := now()
		h.ServeHTTP(sw, r)
		tr.add(span{layer: layer, shard: shard, start: t0, end: now(), n: conditional,
			status: uint16(sw.status), bytes: sw.bytes})
	})
}

var (
	queryLayers = map[string]uint8{"/cache": lQueryCache, "/reports": lQueryReports, "/archive": lQueryArchive}
	fedLayers   = map[string]uint8{"/cache": lFedCache, "/reports": lFedReports}
)

// traceTransport times the federated tier's per-shard calls, from request
// to the end of the response body.
type traceTransport struct {
	inner   http.RoundTripper
	tr      *tracer
	shardOf map[string]uint8 // shard HTTP host → shard label
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

func (t *traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/feed" {
		return t.inner.RoundTrip(r)
	}
	shard := t.shardOf[r.URL.Host]
	t0 := now()
	resp, err := t.inner.RoundTrip(r)
	if err != nil {
		t.tr.add(span{layer: lShardCall, shard: shard, start: t0, end: now()})
		return resp, err
	}
	status := uint16(resp.StatusCode)
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		t.tr.add(span{layer: lShardCall, shard: shard, start: t0, end: now(), status: status})
	}}
	return resp, nil
}

// writeSpans writes every span as CSV: id, parent id (-1 for a root),
// layer, shard, request ID (branch#seq), start and end in ns.
func writeSpans(path string, spans []span, parent []int, l *ledger) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,shard,request,start_ns,end_ns")
	for i, s := range spans {
		req := ""
		if s.req > 0 && int(s.req-1) < len(l.branch) {
			if b := l.branch[s.req-1]; b >= 0 {
				req = l.names[b] + "#" + strconv.FormatUint(s.req-1, 10)
			}
		}
		fmt.Fprintf(w, "%d,%d,%s,%d,%q,%d,%d\n", i, parent[i], layerNames[s.layer], s.shard, req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coverage sums the union of [start,end) intervals clipped to [lo,hi).
func coverage(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}
