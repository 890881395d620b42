// Command perfbench is the repository benchmark. It drives one workload
// against the real inca-server binary (untraced mode) or against the same
// pipeline assembled in-process with a timing shim at every seam (traced
// mode), checks that every output is correct, and prints its metrics.
// Run it through run.sh, which builds both binaries first:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"inca/internal/wire"
)

const setups = 9 // untraced set-ups per run; setup_s is their median

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	spec    *spec
	seed    int64
	seconds int
	bin     string
	work    string
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	name := flag.String("workload", "", "workload: ingest, query, durable or federated")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: also run the traced in-process pipeline and print per-layer metrics")
	flag.StringVar(&cfg.bin, "server", "", "inca-server binary")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for data, spans and budget tables")
	flag.Parse()
	cfg.spec = workloads[*name]
	if cfg.spec == nil || cfg.bin == "" || cfg.work == "" || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -server BIN -work DIR --workload ingest|query|durable|federated --seed N --seconds S --trace 0|1")
		return 2
	}
	// The generator never gets more processors than the box has, and at
	// most two.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	plain, err := execute(cfg, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e2e := plain.endToEnd()
	printMetrics("end-to-end (untraced)", e2e, plain)
	res := result{Correct: len(plain.problems) == 0, Attempted: plain.attempted, Failed: plain.failed, Metrics: gated(e2e)}

	if *trace == 1 {
		tr := newTracer(4 << 20)
		traced, err := execute(cfg, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench traced:", err)
			return 1
		}
		printMetrics("end-to-end (traced)", traced.endToEnd(), traced)
		layers, err := perLayer(cfg, plain, traced, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench traced:", err)
			return 1
		}
		res = result{
			Correct:   len(plain.problems) == 0 && len(traced.problems) == 0,
			Attempted: plain.attempted + traced.attempted,
			Failed:    plain.failed + traced.failed,
			Metrics:   layers,
		}
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// outcome is everything one execution of a workload measured.
type outcome struct {
	setup      []float64 // s
	writes     []*writeStats
	read       *readStats // the live reader; nil when the workload has none
	sweep      *readStats // the timed verification sweeps
	feed       *feedStats
	recovery   float64   // s, durable only
	rss        []float64 // MB: the servers' summed resident set, sampled each second
	peakRSS    float64   // MB: summed VmHWM at the end of the window
	cpu        float64   // generator CPU seconds over the window (untraced)
	serverCPU  float64   // the servers' CPU seconds over the window
	paced      bool      // the writer is open loop
	readPerSec int       // the live reader's pace; 0 for closed loop
	start      int64
	end        int64
	applied    uint64
	matched    uint64
	openS      float64
	cacheB     float64
	front      wire.ServerStats
	router     [2]uint64 // refused, rerouted
	ledger     *ledger
	problems   []string
	attempted  int64
	failed     int64
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// execute runs one workload end to end: set-up, the measured window, and
// every correctness check. A nil tracer spawns the real binaries; a
// tracer assembles the pipeline in-process with shims feeding it.
func execute(cfg config, tr *tracer) (*outcome, error) {
	s := cfg.spec
	o := &outcome{}
	var ports []int
	if s.shards > 0 {
		var err error
		if ports, err = shardPorts(s.shards); err != nil {
			return nil, err
		}
	}
	mode, n := "plain", setups
	cacheKind := ""
	if tr != nil {
		mode, n = "traced", 1
		cacheKind = defaultCache(cfg.bin)
	}
	var tg target
	var l *ledger
	var dir string
	for i := 0; i < n; i++ {
		dir = filepath.Join(cfg.work, fmt.Sprintf("%s-%s-%d", s.name, mode, i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		var err error
		if l, err = newLedger(s); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.seed))
		t0 := time.Now()
		if tr == nil {
			tg, err = startProcs(cfg.bin, s, dir, ports)
		} else {
			tg, err = startInproc(s, dir, cacheKind, tr, ports)
		}
		if err != nil {
			return nil, err
		}
		c := httpClient()
		if err = postPolicy(c, tg.httpAddr()); err == nil {
			if err = seedAll(l, tg.wireAddr(), rng); err == nil {
				err = waitVisible(c, tg.httpAddr(), len(l.names), 60*time.Second)
			}
		}
		c.CloseIdleConnections()
		if err != nil {
			tg.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		if i < n-1 {
			tg.close()
			os.RemoveAll(dir)
		}
	}
	defer os.RemoveAll(dir)
	defer func() { tg.close() }()
	o.ledger = l

	measure(cfg, tg, l, tr, o)
	verify(cfg, tg, l, o)
	if it, ok := tg.(*inprocTarget); ok {
		o.openS = it.openS
	}

	o.attempted += int64(l.written())
	if o.read != nil {
		o.attempted += o.read.ops
		o.failed += o.read.failed
	}
	for _, w := range o.writes {
		o.failed += w.failed
	}
	if o.feed != nil {
		o.attempted += o.feed.events
		o.failed += o.feed.mismatched
	}
	if o.failed > 0 {
		o.fail("%d failed operations", o.failed)
	}
	return o, nil
}

// measure runs the workload's clients for the configured seconds.
func measure(cfg config, tg target, l *ledger, tr *tracer, o *outcome) {
	s := cfg.spec
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var feedDone chan struct{}
	if s.feed {
		ready := make(chan error, 1)
		feedDone = make(chan struct{})
		o.feed = newFeedStats(l)
		go func() {
			subscribe(ctx, tg.httpAddr(), l, o.feed, ready)
			close(feedDone)
		}()
		if err := <-ready; err != nil {
			o.fail("feed subscribe: %v", err)
		}
	}
	cpu0, server0 := cpuSeconds(), tg.cpuS()
	o.start = now()
	stopRSS := make(chan struct{})
	rssDone := make(chan struct{})
	go func() {
		defer close(rssDone)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stopRSS:
				return
			case <-tick.C:
				o.rss = append(o.rss, tg.rssMB())
			}
		}
	}()
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	writes := make(chan *writeStats, s.writers+1)
	nw := 0
	if s.pacedPerSec > 0 {
		nw, o.paced = 1, true
		rng := rand.New(rand.NewSource(cfg.seed*1000 + 1))
		go func() {
			writes <- pacedWriter(l, tg.wireAddr(), s.pacedPerSec, max(1, s.pacedBatch), s.fromDue, rng, deadline, tr)
		}()
	}
	for w := 0; w < s.writers; w++ {
		nw++
		var mine []int
		for b := w; b < len(l.names); b += s.writers {
			mine = append(mine, b)
		}
		limit := 0
		if s.fixedPerSec > 0 {
			limit = s.fixedPerSec * cfg.seconds / s.writers
		}
		rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(w) + 1))
		go func() { writes <- closedWriter(l, tg.wireAddr(), mine, rng, deadline, limit, tr) }()
	}
	reads := make(chan *readStats, 1)
	if s.reader != "" {
		o.readPerSec = s.readPerSec
		rng := rand.New(rand.NewSource(cfg.seed*1000 + 99))
		go func() { reads <- reader(tg.httpAddr(), s.reader, s.readPerSec, l, rng, deadline, tr) }()
	}
	for i := 0; i < nw; i++ {
		o.writes = append(o.writes, <-writes)
	}
	if s.reader != "" {
		o.read = <-reads
	}
	o.end = now()
	o.cpu = cpuSeconds() - cpu0
	o.serverCPU = tg.cpuS() - server0
	close(stopRSS)
	<-rssDone
	o.rss = append(o.rss, tg.rssMB()) // a window under a second has one sample
	if feedDone != nil {
		limit := time.Now().Add(15 * time.Second)
		for !o.feedCaughtUp(l) && time.Now().Before(limit) {
			time.Sleep(5 * time.Millisecond)
		}
		if !o.feedCaughtUp(l) {
			o.fail("feed: subscriber never saw every branch's last report")
		}
		cancel()
		<-feedDone
		if o.feed.err != nil {
			o.fail("feed: %v", o.feed.err)
		}
	}
}

func (o *outcome) feedCaughtUp(l *ledger) bool { return o.feed == nil || o.feed.caughtUp(l) }

// verify runs the correctness checks after the writers drain: every branch
// answers exactly its last acked report, a sample of archive series ends
// with the last acked value, and every matched store was applied to the
// archive. durable repeats the read checks after a SIGKILL and restart.
func verify(cfg config, tg target, l *ledger, o *outcome) {
	s := cfg.spec
	c := httpClient()
	defer c.CloseIdleConnections()
	base := tg.httpAddr()
	o.sweep = &readStats{}
	if s.shards > 0 {
		// The router acked on custody; delivery to the shards is
		// asynchronous, so wait it out before judging.
		limit := time.Now().Add(30 * time.Second)
		for sweep(c, base, l, nil) > 0 && time.Now().Before(limit) {
			time.Sleep(20 * time.Millisecond)
		}
	}
	// ingest has no live reader: its read metrics come from timed
	// verification sweeps, two per measured second.
	passes := 1
	if s.reader == "" && !s.disk {
		passes = 2 * cfg.seconds
	}
	o.sweep.start = now()
	for i := 0; i < passes; i++ {
		if bad := sweep(c, base, l, o.sweep); bad > 0 {
			o.fail("%d branches did not answer their last acked report", bad)
			break
		}
	}
	o.sweep.end = now()
	o.attempted += o.sweep.ops
	o.failed += o.sweep.failed
	if bad := checkArchive(c, base, l, 16); bad > 0 {
		o.fail("%d archive series do not end with their last acked value", bad)
	}
	var err error
	o.applied, o.matched, err = tg.archive()
	if err != nil {
		o.fail("archive counters: %v", err)
	} else if o.matched == 0 || o.applied != o.matched {
		o.fail("archive applied %d of %d matched stores", o.applied, o.matched)
	}
	o.peakRSS = tg.peakMB()
	if it, ok := tg.(*inprocTarget); ok {
		o.cacheB = it.cacheBytes()
		if it.rsrv != nil {
			o.front = it.rsrv.Stats()
			st := it.router.Stats()
			o.router = [2]uint64{st.Refused, st.Rerouted}
		} else {
			o.front = it.shards[0].srv.Stats()
		}
	}

	if s.disk {
		// Process-kill durability only: the WAL does not fsync per append,
		// so this proves nothing about a machine crash.
		tg.crash()
		c.CloseIdleConnections()
		t0 := time.Now()
		if err := tg.restart(); err != nil {
			o.fail("restart: %v", err)
			return
		}
		base = tg.httpAddr()
		o.sweep = &readStats{start: now()}
		if bad := sweep(c, base, l, o.sweep); bad > 0 {
			o.fail("after restart: %d branches did not answer their last acked report", bad)
		}
		o.sweep.end = now()
		o.recovery = time.Since(t0).Seconds()
		o.attempted += o.sweep.ops
		o.failed += o.sweep.failed
		if bad := checkArchive(c, base, l, 16); bad > 0 {
			o.fail("after restart: %d archive series do not end with their last acked value", bad)
		}
	}
}

// e2e metric values with their sample counts, in print order.
type e2eMetric struct {
	name  string
	unit  string
	value float64
	n     int
	gated bool // listed in BENCHMARK.json
}

// perSecond is rateAndMedian taken over each whole second of [lo, hi)
// and reduced to the median across seconds. A burst of CPU time stolen by
// the hypervisor then moves the few seconds it hits, not the run's
// figure. Runs shorter than three seconds fall back to rateAndMedian.
func perSecond(samples []sample, lo, hi int64) (rate, p50 float64) {
	k := int((hi - lo) / int64(time.Second))
	if k < 3 {
		return rateAndMedian(samples, lo, hi)
	}
	windows := make([][]sample, k)
	for _, s := range samples {
		if i := int((s.at - lo) / int64(time.Second)); s.at >= lo && i < k {
			windows[i] = append(windows[i], s)
		}
	}
	rates := make([]float64, 0, k)
	meds := make([]float64, 0, k)
	for _, w := range windows {
		r, m := rateAndMedian(w, 0, int64(time.Second))
		rates = append(rates, r)
		if len(w) > 0 {
			meds = append(meds, m)
		}
	}
	return median(rates), median(meds)
}

// rateAndMedian returns the completion rate of samples over [lo, hi], per
// second, and their median latency.
func rateAndMedian(samples []sample, lo, hi int64) (rate, p50 float64) {
	var n float64
	lat := make([]float64, 0, len(samples))
	for _, s := range samples {
		n += float64(s.n)
		lat = append(lat, s.ms)
	}
	sort.Float64s(lat)
	return ratio(n, float64(hi-lo)/1e9), quantile(lat, 0.5)
}

// reads are the live reader's, or without one the timed verification
// sweeps.
func (o *outcome) reads() *readStats {
	if o.read != nil {
		return o.read
	}
	return o.sweep
}

func (o *outcome) endToEnd() []e2eMetric {
	var ws []sample
	var lat []float64
	var reports int64
	for _, w := range o.writes {
		reports += w.reports
		ws = append(ws, w.lat...)
		for _, s := range w.lat {
			lat = append(lat, s.ms)
		}
	}
	sort.Float64s(lat)
	rs, live := o.reads(), int64(0)
	if o.read != nil {
		live = o.read.ops
	}
	rl := append([]float64(nil), rs.lat...)
	sort.Float64s(rl)
	// A paced writer's rate is its schedule, a paced reader does the same
	// work every second, and the sweeps last a few seconds at most: all
	// are taken whole.
	wRate, wP50 := perSecond(ws, o.start, o.end)
	if o.paced {
		wRate, wP50 = rateAndMedian(ws, o.start, o.end)
	}
	rRate, rP50 := rateAndMedian(rs.rounds, rs.start, rs.end)
	if o.read != nil && o.readPerSec == 0 {
		rRate, rP50 = perSecond(rs.rounds, rs.start, rs.end)
	}
	out := []e2eMetric{
		{"setup_s", "s", median(o.setup), len(o.setup), true},
		// Under a paced writer the rate is the offered load, printed as a
		// check that the server kept up.
		{"write_reports_per_s", "1/s", wRate, len(lat), false},
		{"write_p50_ms", "ms", wP50, len(lat), true},
		{"write_p99_ms", "ms", quantile(lat, 0.99), len(lat), false},
		{"read_ops_per_s", "1/s", rRate, len(rl), false},
		{"read_p50_ms", "ms", rP50, len(rs.rounds), true},
		{"read_p99_ms", "ms", quantile(rl, 0.99), len(rl), false},
		{"server_rss_mb", "MB", median(o.rss), len(o.rss), true},
		{"server_cpu_us_per_op", "us", 1e6 * ratio(o.serverCPU, float64(reports+live)), int(reports + live), true},
		{"server_peak_rss_mb", "MB", o.peakRSS, 1, false},
		{"failed_frac", "ratio", ratio(float64(o.failed), float64(o.attempted)), int(o.attempted), false},
	}
	if o.feed != nil {
		fl := append([]float64(nil), o.feed.lag...)
		sort.Float64s(fl)
		out = append(out,
			e2eMetric{"feed_lag_p50_ms", "ms", quantile(fl, 0.5), len(fl), false},
			e2eMetric{"feed_lag_p99_ms", "ms", quantile(fl, 0.99), len(fl), false})
	}
	if o.recovery > 0 {
		out = append(out, e2eMetric{"recovery_s", "s", o.recovery, 1, false})
	}
	return out
}

func gated(ms []e2eMetric) map[string]metric {
	out := map[string]metric{}
	for _, m := range ms {
		if m.gated {
			out[m.name] = metric{m.value, m.unit}
		}
	}
	return out
}

func printMetrics(title string, ms []e2eMetric, o *outcome) {
	fmt.Printf("# %s\n", title)
	for _, m := range ms {
		fmt.Printf("%-22s %14.4f %-5s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for _, p := range o.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
}

// perLayer renders the traced run's budget: per-layer metrics as JSON
// values, the Markdown table on stdout and beside the span file.
func perLayer(cfg config, plain, traced *outcome, tr *tracer) (map[string]metric, error) {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	dropped := tr.dropped
	tr.mu.Unlock()
	b := analyze(spans, traced.start, traced.end)
	m := b.metrics
	var reqd, redials uint64
	for _, w := range traced.writes {
		reqd += w.client.Requeued
		redials += w.client.Redials
	}
	m["wire.requeued"] = float64(reqd)
	m["wire.redials"] = float64(redials)
	m["wire.server_batches"] = float64(traced.front.Batches)
	m["controller.nacks"] = float64(tr.nacks.Load())
	m["depot.archive_applied_ratio"] = ratio(float64(traced.applied), float64(traced.matched))
	m["depot.open_s"] = traced.openS
	m["cache.bytes"] = traced.cacheB
	// The untraced twins of the traced figures: a shim that hid an optional
	// cache interface would turn ETags off and show here as a mismatch.
	pr, trr := plain.reads(), traced.reads()
	m["query.not_modified_ratio_untraced"] = ratio(float64(pr.notModified), float64(pr.conditional))
	m["query.etag_ratio"] = ratio(float64(trr.tagged), float64(trr.validatable))
	m["query.etag_ratio_untraced"] = ratio(float64(pr.tagged), float64(pr.validatable))
	m["router.refused"] = float64(traced.router[0])
	m["router.rerouted"] = float64(traced.router[1])
	m["feed.events"], m["feed.delivered_ratio"], m["feed.resyncs"] = 0, 0, 0
	if f := traced.feed; f != nil {
		var acked int64
		for _, w := range traced.writes {
			acked += w.reports
		}
		m["feed.events"] = float64(f.events)
		m["feed.delivered_ratio"] = ratio(float64(len(f.seen)), float64(acked))
		m["feed.resyncs"] = float64(max(0, f.snapshots-1))
	}
	var late []float64
	for _, w := range plain.writes {
		late = append(late, w.late...)
	}
	sort.Float64s(late)
	m["gen.late_p99_ms"] = quantile(late, 0.99)
	m["gen.cpu_s"] = plain.cpu
	// Both runs list the same metrics in the same order.
	pe, te := plain.endToEnd(), traced.endToEnd()
	const wP50, rP50 = 2, 5
	m["trace.overhead_write_p50_pct"] = 100 * ratio(te[wP50].value-pe[wP50].value, pe[wP50].value)
	m["trace.overhead_read_p50_pct"] = 100 * ratio(te[rP50].value-pe[rP50].value, pe[rP50].value)
	m["trace.spans"] = float64(len(spans))
	m["trace.spans_dropped"] = float64(dropped)

	fmt.Println("# tracing overhead (traced − untraced)")
	for i := range pe {
		fmt.Printf("%-22s untraced %12.4f  traced %12.4f %s\n", pe[i].name, pe[i].value, te[i].value, pe[i].unit)
	}
	fmt.Printf("# per-layer budget: %s, seed %d\n\n%s\n", cfg.spec.name, cfg.seed, b.table)

	dir := filepath.Join(cfg.work, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", cfg.spec.name, cfg.seed))
	if err := os.WriteFile(stem+".md", []byte(b.table), 0o644); err != nil {
		return nil, err
	}
	if err := writeSpans(stem+".spans.csv", spans, b.parent, traced.ledger); err != nil {
		return nil, err
	}
	out := map[string]metric{}
	var names []string
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		out[k] = metric{m[k], unitOf(k)}
	}
	return out, nil
}

func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_ratio_untraced"):
		return "ratio"
	case strings.Contains(name, "bytes"):
		return "bytes"
	}
	return "count"
}
