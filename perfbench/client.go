package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"inca/internal/wire"
)

// epoch anchors every timestamp the benchmark records (generator and
// trace spans alike), so spans from both sides compare directly.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// sample is one timed operation: when it completed, its latency in ms,
// and how many reports or reads it covered.
type sample struct {
	at int64
	ms float64
	n  int
}

// writeStats is one writer connection's outcome.
type writeStats struct {
	lat     []sample  // per write: batch round trip, or due-to-ack when paced
	late    []float64 // ms the paced writer started after a due time
	reports int64     // reports acked
	failed  int64
	client  wire.BatchStats
}

func newBatchClient(addr string) *wire.BatchClient {
	return wire.NewBatchClient(addr, wire.BatchOptions{MaxBatch: batchSize, Window: 1, FlushInterval: -1})
}

func message(l *ledger, b int, data []byte) *wire.Message {
	return &wire.Message{Branch: l.names[b], Hostname: hostname, Report: data}
}

// seedAll writes every branch's first report over one connection and
// waits for the acks.
func seedAll(l *ledger, addr string, rng *rand.Rand) error {
	c := newBatchClient(addr)
	defer c.Close()
	for b := range l.names {
		seq := l.reserve(1)
		if err := c.Enqueue(message(l, b, l.make(b, seq, rng))); err != nil {
			return err
		}
	}
	if err := c.Drain(); err != nil {
		return err
	}
	if st := c.Stats(); st.Rejected > 0 || st.Dropped > 0 {
		return fmt.Errorf("seed: %d rejected, %d dropped", st.Rejected, st.Dropped)
	}
	return nil
}

// closedWriter sends one batch at a time over one wire.BatchClient until
// deadline passes (or, when limit > 0, until limit reports are written),
// timing each batch from its write to its ack. BatchClient reports acks
// only through Drain, so a batch's own round trip is observable only with
// one batch in flight; a deeper window would time the generator instead
// whenever the server acks faster than the next batch is built.
func closedWriter(l *ledger, addr string, branches []int, rng *rand.Rand, deadline time.Time, limit int, tr *tracer) *writeStats {
	c := newBatchClient(addr)
	ws := &writeStats{}
	msgs := make([]*wire.Message, batchSize)
	next := 0
	for written := 0; limit > 0 && written < limit || limit <= 0 && time.Now().Before(deadline); written += batchSize {
		first := l.reserve(batchSize)
		for j := range msgs {
			b := branches[next%len(branches)]
			next++
			msgs[j] = message(l, b, l.make(b, first+uint64(j), rng))
		}
		sent := now()
		var err error
		for _, m := range msgs {
			if e := c.Enqueue(m); e != nil {
				err = e
			}
		}
		if e := c.Drain(); e != nil {
			err = e
		}
		ack := now()
		if err != nil {
			ws.failed++
		}
		ws.lat = append(ws.lat, sample{ack, ms(ack - sent), batchSize})
		tr.add(span{layer: lWireBatch, start: sent, end: ack, req: first + 1, n: batchSize})
	}
	ws.finish(c)
	return ws
}

// pacedWriter sends batch reports at each due time, perSec reports a
// second, open loop. A fixed offered load makes every run do the same work
// whatever else the machine is running. It times each batch from its send
// to its ack, or with fromDue from its due time, so that a stall is
// charged to every write it delays.
func pacedWriter(l *ledger, addr string, perSec, batch int, fromDue bool, rng *rand.Rand, deadline time.Time, tr *tracer) *writeStats {
	c := newBatchClient(addr)
	ws := &writeStats{}
	start := now()
	interval := int64(time.Second) * int64(batch) / int64(perSec)
	end := start + int64(time.Until(deadline))
	order := evenOrder(len(l.names), batch, rng)
	msgs := make([]*wire.Message, batch)
	next := 0
	for i := int64(0); start+i*interval <= end; i++ {
		due := start + i*interval
		if d := due - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		ws.late = append(ws.late, ms(now()-due))
		first := l.reserve(batch)
		for j := range msgs {
			b := order[next%len(order)]
			next++
			msgs[j] = message(l, b, l.make(b, first+uint64(j), rng))
		}
		// The clock starts before the first Enqueue: a full batch is
		// flushed from inside Enqueue and may be acked before it returns.
		sent := now()
		var err error
		for _, m := range msgs {
			if e := c.Enqueue(m); e != nil {
				err = e
			}
		}
		if e := c.Drain(); e != nil {
			err = e
		}
		ack := now()
		if err != nil {
			ws.failed++
		}
		from := sent
		if fromDue {
			from = due
		}
		ws.lat = append(ws.lat, sample{ack, ms(ack - from), batch})
		tr.add(span{layer: lWireBatch, start: sent, end: ack, req: first + 1, n: uint16(batch)})
	}
	ws.finish(c)
	return ws
}

// finish closes the writer's client and takes its delivery accounting.
func (ws *writeStats) finish(c *wire.BatchClient) {
	c.Close()
	ws.client = c.Stats()
	ws.reports = int64(ws.client.Acked)
	ws.failed += int64(ws.client.Rejected + ws.client.Dropped)
}

// evenOrder is a visiting order over n branches: it steps by the integer
// nearest n/φ that is coprime with n, so every stretch of it samples branch
// sizes, cache positions and shards evenly. It starts at a seeded position
// that is a multiple of align, so writers that take align branches at a
// time send the same batches whatever the seed: seeds differ in order, not
// in mix.
func evenOrder(n, align int, rng *rand.Rand) []int {
	step := int(float64(n)*0.618 + 0.5)
	for gcd(step, n) != 1 {
		step++
	}
	order := make([]int, n)
	off := align * rng.Intn(max(1, n/align))
	for i := range order {
		order[(i+n-off)%n] = i * step % n
	}
	return order
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// readStats is the HTTP reader's outcome.
type readStats struct {
	lat []float64 // ms per read
	// rounds holds one sample per pass through the read mix: its mean
	// latency per read. A mix of kinds with very different costs has a
	// per-read median that jumps between kinds; a round's mean does not.
	rounds      []sample
	ops         int64
	failed      int64
	conditional int64 // reads sent with If-None-Match
	notModified int64
	// validatable counts 200 answers to the conditional kinds of read,
	// tagged those that carried an ETag to revalidate with.
	validatable int64
	tagged      int64
	start, end  int64
}

// httpClient is one keep-alive connection's worth of client.
func httpClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
			DisableCompression: true,
		},
	}
}

// get fetches base+path, sending etag as If-None-Match when non-empty.
func get(c *http.Client, base, path, etag string) (status int, body []byte, tag string, err error) {
	return fetch(c, base, path, etag, nil)
}

// fetch is get reading the body into scratch when it is large enough, so
// a reader that loops over multi-megabyte answers does not make the
// generator allocate and copy its way through each one.
func fetch(c *http.Client, base, path, etag string, scratch []byte) (status int, body []byte, tag string, err error) {
	req, err := http.NewRequest(http.MethodGet, "http://"+base+path, nil)
	if err != nil {
		return 0, nil, "", err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	if n := resp.ContentLength; n >= 0 {
		if int64(cap(scratch)) < n {
			scratch = make([]byte, n)
		}
		body = scratch[:n]
		_, err = io.ReadFull(resp.Body, body)
	} else {
		body, err = io.ReadAll(resp.Body)
	}
	return resp.StatusCode, body, resp.Header.Get("ETag"), err
}

func archivePath(l *ledger, b int) string {
	q := url.Values{}
	q.Set("branch", l.names[b])
	q.Set("policy", policyName)
	q.Set("cf", "AVERAGE")
	q.Set("start", baseGMT.Format(time.RFC3339))
	q.Set("end", baseGMT.Add(10*365*24*time.Hour).Format(time.RFC3339))
	return "/archive?" + q.Encode()
}

// reader runs the read mix until deadline: closed loop, or perSec reads a
// second when perSec > 0. The depot mix cycles conditional /cache,
// conditional site-prefix /reports, exact-branch /cache?branch= and
// conditional /archive of one series; the federated mix cycles the first
// two.
func reader(base, kind string, perSec int, l *ledger, rng *rand.Rand, deadline time.Time, tr *tracer) *readStats {
	c := httpClient()
	defer c.CloseIdleConnections()
	rs := &readStats{start: now()}
	etags := map[string]string{}
	order := evenOrder(len(l.names), 1, rng)
	kinds := 4
	if kind == "federated" {
		kinds = 2
	}
	var round float64
	var scratch []byte
	for i := 0; time.Now().Before(deadline); i++ {
		if perSec > 0 {
			if d := rs.start + int64(i)*int64(time.Second)/int64(perSec) - now(); d > 0 {
				time.Sleep(time.Duration(d))
			}
		}
		var path string
		conditional := false
		switch i % kinds {
		case 0:
			path, conditional = "/cache", true
		case 1:
			path, conditional = "/reports?branch="+url.QueryEscape(siteName((i/kinds)%l.spec.sites)), true
		case 2:
			path = "/cache?branch=" + url.QueryEscape(l.names[order[(i/kinds)%len(order)]])
		case 3:
			path, conditional = archivePath(l, 0), true
		}
		etag := etags[path]
		if etag != "" {
			rs.conditional++
		}
		t0 := now()
		status, body, tag, err := fetch(c, base, path, etag, scratch)
		scratch = body
		t1 := now()
		tr.add(span{layer: lClientRead, start: t0, end: t1})
		rs.ops++
		rs.lat = append(rs.lat, ms(t1-t0))
		round += ms(t1 - t0)
		if i%kinds == kinds-1 {
			rs.rounds = append(rs.rounds, sample{t1, round / float64(kinds), kinds})
			round = 0
		}
		switch {
		case err != nil:
			rs.failed++
		case status == http.StatusNotModified && etag != "":
			rs.notModified++
		case status == http.StatusOK && len(body) > 0:
			if conditional {
				etags[path] = tag
				rs.validatable++
				if tag != "" {
					rs.tagged++
				}
			}
		default:
			rs.failed++
		}
	}
	rs.end = now()
	return rs
}

// feedStats is the SSE subscriber's outcome.
type feedStats struct {
	mu         sync.Mutex
	events     int64
	snapshots  int64
	mismatched int64
	lag        []float64
	seen       map[uint64]bool
	lastSeen   []int64 // per branch: highest seq observed, -1 for none
	err        error
}

func newFeedStats(l *ledger) *feedStats {
	fs := &feedStats{seen: map[uint64]bool{}, lastSeen: make([]int64, len(l.names))}
	for i := range fs.lastSeen {
		fs.lastSeen[i] = -1
	}
	return fs
}

// subscribe streams /feed over SSE into fs until ctx ends, matching every
// change event to the report the generator wrote under the same sequence
// number.
func subscribe(ctx context.Context, base string, l *ledger, fs *feedStats, ready chan<- error) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+base+"/feed", nil)
	resp, err := http.DefaultClient.Do(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		err = fmt.Errorf("feed: status %d", resp.StatusCode)
	}
	ready <- err
	if err != nil {
		fs.setErr(err)
		return
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	var event string
	var data []byte
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			if ctx.Err() == nil {
				fs.setErr(err)
			}
			return
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		switch {
		case len(line) == 0:
			if event != "" {
				fs.handle(l, event, data, now())
			}
			event, data = "", data[:0]
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data:")):
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, bytes.TrimPrefix(line[len("data:"):], []byte(" "))...)
		}
	}
}

func (fs *feedStats) setErr(err error) {
	fs.mu.Lock()
	if fs.err == nil {
		fs.err = err
	}
	fs.mu.Unlock()
}

func (fs *feedStats) handle(l *ledger, event string, data []byte, at int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	switch event {
	case "snapshot":
		fs.snapshots++
		return
	case "change":
	default:
		return
	}
	var ev struct {
		Branch string `json:"branch"`
		Kind   string `json:"kind"`
		Report string `json:"report"`
	}
	if err := json.Unmarshal(data, &ev); err != nil || ev.Kind != "report" {
		fs.mismatched++
		return
	}
	fs.events++
	rep := []byte(ev.Report)
	seq, ok := seqOf(rep)
	var created int64
	var sum uint64
	var b int
	if ok {
		created, sum, b, ok = l.lookup(seq)
	}
	if !ok || sum != checksum(rep) || l.names[b] != ev.Branch {
		fs.mismatched++
		return
	}
	if !fs.seen[seq] {
		fs.seen[seq] = true
		fs.lag = append(fs.lag, ms(at-created))
	}
	if int64(seq) > fs.lastSeen[b] {
		fs.lastSeen[b] = int64(seq)
	}
}

// caughtUp reports whether the subscriber has seen every branch's last
// written report.
func (fs *feedStats) caughtUp(l *ledger) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for b, seq := range l.lastSeq {
		if fs.lastSeen[b] < int64(seq) {
			return false
		}
	}
	return true
}

// storedReport extracts the single report of an exact-branch /reports
// answer.
func storedReport(body []byte) ([]byte, bool) {
	open := bytes.Index(body, []byte(`<stored branch="`))
	if open < 0 {
		return nil, false
	}
	start := bytes.Index(body[open:], []byte(`">`))
	end := bytes.LastIndex(body, []byte("</stored>"))
	if start < 0 || end < open+start+2 {
		return nil, false
	}
	return body[open+start+2 : end], true
}

// sweep reads every branch by exact-branch /reports and compares the
// answer with the branch's last acked report, byte for byte. It returns
// the number of branches that did not match.
func sweep(c *http.Client, base string, l *ledger, rs *readStats) int {
	bad := 0
	for b, name := range l.names {
		t0 := now()
		status, body, _, err := get(c, base, "/reports?branch="+url.QueryEscape(name), "")
		t1 := now()
		if rs != nil {
			rs.ops++
			rs.lat = append(rs.lat, ms(t1-t0))
			rs.rounds = append(rs.rounds, sample{t1, ms(t1 - t0), 1})
		}
		got, ok := storedReport(body)
		if err != nil || status != http.StatusOK || !ok || !bytes.Equal(got, l.last[b]) {
			bad++
			if rs != nil {
				rs.failed++
			}
		}
	}
	return bad
}

// checkArchive compares the newest /archive row of a sample of series
// with the last value written to each; it returns the mismatch count.
func checkArchive(c *http.Client, base string, l *ledger, samples int) int {
	bad := 0
	stride := len(l.names) / samples
	if stride < 1 {
		stride = 1
	}
	for b := 0; b < len(l.names); b += stride {
		status, body, _, err := get(c, base, archivePath(l, b), "")
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		last := lines[len(lines)-1]
		want := strconv.Itoa(l.lastVal[b])
		if err != nil || status != http.StatusOK || !strings.HasSuffix(last, ","+want) ||
			!strings.HasPrefix(last, baseGMT.Add(time.Duration(l.k[b]-1)*step).Format(time.RFC3339)+",") {
			bad++
		}
	}
	return bad
}

// countStored counts the reports a /reports answer holds.
func countStored(body []byte) int { return bytes.Count(body, []byte("<stored ")) }

// waitVisible polls a deep read of the whole bench subtree until every
// branch is present, the set-up's definition of ready.
func waitVisible(c *http.Client, base string, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		status, body, _, err := get(c, base, "/reports?branch=vo%3Dbench", "")
		if err == nil && status == http.StatusOK && countStored(body) == n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deep read: %d of %d branches visible (status %d, err %v)", countStored(body), n, status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func postPolicy(c *http.Client, base string) error {
	resp, err := c.Post("http://"+base+"/policy", "text/xml", strings.NewReader(policyXML()))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("policy upload: status %d", resp.StatusCode)
	}
	return nil
}
