package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"inca/internal/consumer"
	"inca/internal/controller"
	"inca/internal/depot"
	"inca/internal/envelope"
	"inca/internal/federation"
	"inca/internal/metrics"
	"inca/internal/query"
	"inca/internal/wire"
)

// target is the system under test: spawned inca-server processes
// (untraced) or the same pipeline assembled in-process with timing shims
// (traced). Either way the generator reaches it only over TCP.
type target interface {
	wireAddr() string
	httpAddr() string
	// archive sums the depots' archive counters: samples applied and
	// stores that matched a policy.
	archive() (applied, matched uint64, err error)
	// rssMB is the servers' summed resident set now, peakMB their summed
	// peak (VmHWM).
	rssMB() float64
	peakMB() float64
	// cpuS is the servers' summed CPU time so far, in seconds.
	cpuS() float64
	// crash stops the server without any shutdown work; restart brings it
	// back on the same storage and returns once it listens.
	crash()
	restart() error
	close()
}

// --- untraced: real binaries -------------------------------------------------

var (
	wireAddrRE   = regexp.MustCompile(`controller listening on ([^ ]+) `)
	httpAddrRE   = regexp.MustCompile(`querying interface on http://([^ ]+) `)
	routerWireRE = regexp.MustCompile(`federation router listening on ([^ ]+) `)
	routerHTTPRE = regexp.MustCompile(`federated querying interface on http://([^ ]+) `)
)

// proc is one spawned inca-server, started with deployment flags only.
type proc struct {
	cmd        *exec.Cmd
	args       []string
	wire, http string
}

func spawn(bin string, wireRE, httpRE *regexp.Regexp, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, args: args}
	found := make(chan struct{})
	go func() {
		// Drains stdout until the process exits, so the server never
		// blocks on a full pipe.
		sc := bufio.NewScanner(out)
		var wire, http string
		for sc.Scan() {
			line := sc.Text()
			if m := wireRE.FindStringSubmatch(line); m != nil {
				wire = m[1]
			}
			if m := httpRE.FindStringSubmatch(line); m != nil {
				http = m[1]
			}
			if wire != "" && http != "" && p.wire == "" {
				p.wire, p.http = wire, http
				close(found)
			}
		}
	}()
	select {
	case <-found:
		return p, nil
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("%s %v: no listen addresses within 30s", bin, args)
	}
}

func (p *proc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// memMB reads one memory field (VmRSS, VmHWM) of /proc/pid/status, in MB.
func memMB(pid int, field string) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field+":" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

type procTarget struct {
	bin    string
	depots []*proc // the servers hosting depots
	router *proc   // nil unless federated
}

func startProcs(bin string, s *spec, dataDir string, ports []int) (*procTarget, error) {
	t := &procTarget{bin: bin}
	if s.shards == 0 {
		args := []string{"-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0"}
		if s.disk {
			args = append(args, "-storage", "disk", "-data", dataDir)
		}
		p, err := spawn(bin, wireAddrRE, httpAddrRE, args...)
		if err != nil {
			return nil, err
		}
		t.depots = []*proc{p}
		return t, nil
	}
	var topo []string
	for i := 0; i < s.shards; i++ {
		p, err := spawn(bin, wireAddrRE, httpAddrRE, "-tcp", fmt.Sprintf("127.0.0.1:%d", ports[i]), "-http", "127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, err
		}
		t.depots = append(t.depots, p)
		topo = append(topo, p.wire+"/"+p.http)
	}
	r, err := spawn(bin, routerWireRE, routerHTTPRE, "-federate", strings.Join(topo, ","),
		"-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, err
	}
	t.router = r
	return t, nil
}

func (t *procTarget) front() *proc {
	if t.router != nil {
		return t.router
	}
	return t.depots[0]
}

func (t *procTarget) wireAddr() string { return t.front().wire }
func (t *procTarget) httpAddr() string { return t.front().http }

// archive reads two counters off each depot's /metrics page.
func (t *procTarget) archive() (applied, matched uint64, err error) {
	c := httpClient()
	defer c.CloseIdleConnections()
	for _, p := range t.depots {
		status, body, _, gerr := get(c, p.http, "/metrics", "")
		if gerr != nil || status != http.StatusOK {
			return 0, 0, fmt.Errorf("scrape %s: status %d, %v", p.http, status, gerr)
		}
		for _, line := range strings.Split(string(body), "\n") {
			f := strings.Fields(line)
			if len(f) != 2 {
				continue
			}
			v, _ := strconv.ParseFloat(f[1], 64)
			switch f[0] {
			case "inca_depot_archive_applied_total":
				applied += uint64(v)
			case "inca_depot_archive_matched_total":
				matched += uint64(v)
			}
		}
	}
	return applied, matched, nil
}

func (t *procTarget) mem(field string) float64 {
	total := 0.0
	for _, p := range append(t.depots, t.router) {
		if p != nil {
			total += memMB(p.cmd.Process.Pid, field)
		}
	}
	return total
}

func (t *procTarget) rssMB() float64  { return t.mem("VmRSS") }
func (t *procTarget) peakMB() float64 { return t.mem("VmHWM") }

// cpuS sums utime and stime off /proc/pid/stat, which counts in USER_HZ
// (100) ticks. Time the hypervisor steals from the guest is not in it.
func (t *procTarget) cpuS() float64 {
	total := 0.0
	for _, p := range append(t.depots, t.router) {
		if p == nil {
			continue
		}
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			continue
		}
		f := strings.Fields(string(data[strings.LastIndexByte(string(data), ')')+1:]))
		if len(f) > 12 {
			ut, _ := strconv.ParseFloat(f[11], 64)
			st, _ := strconv.ParseFloat(f[12], 64)
			total += (ut + st) / 100
		}
	}
	return total
}

func (t *procTarget) crash() {
	for _, p := range t.depots {
		p.cmd.Process.Signal(syscall.SIGKILL)
		p.cmd.Wait()
	}
}

func (t *procTarget) restart() error {
	p, err := spawn(t.bin, wireAddrRE, httpAddrRE, t.depots[0].args...)
	if err != nil {
		return err
	}
	t.depots[0] = p
	return nil
}

func (t *procTarget) close() {
	if t.router != nil {
		t.router.kill()
	}
	for _, p := range t.depots {
		p.kill()
	}
}

// shardPorts picks fixed wire ports for the federated shards. A shard's
// wire address is its identity on the consistent-hash ring, so fixed
// ports keep the site-to-shard split the same in every run.
func shardPorts(n int) ([]int, error) {
	var ports []int
	for p := 27431; p < 27631 && len(ports) < n; p++ {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
		if err == nil {
			ln.Close()
			ports = append(ports, p)
		}
	}
	if len(ports) < n {
		return nil, fmt.Errorf("no free shard ports")
	}
	return ports, nil
}

// --- traced: the same pipeline in-process -------------------------------------

// Server defaults mirrored from cmd/inca-server's flags.
const (
	defaultIdleTimeout = 5 * time.Minute
	defaultOpenFiles   = 64
	defaultFeedQueue   = 256
	defaultReverify    = 5 * time.Minute
)

// shard is one in-process depot server: depot, controller, wire server,
// query server and change feed, wired the way cmd/inca-server wires them,
// with a shim at each seam.
type shard struct {
	d     *depot.Depot
	srv   *wire.Server
	feed  *query.Feed
	http  *http.Server
	haddr string
	openS float64 // OpenDisk time, disk storage only
}

func startShard(s *spec, dir, wireAt, cacheKind string, tr *tracer, label uint8) (*shard, error) {
	reg := metrics.NewRegistry()
	opts := depot.Options{Metrics: reg}
	cache, err := newCache(cacheKind)
	if err != nil {
		return nil, err
	}
	sh := &shard{}
	if s.disk {
		t0 := time.Now()
		sh.d, err = depot.OpenDisk(depot.DiskOptions{Options: opts, Dir: dir, OpenFiles: defaultOpenFiles,
			Cache: traceCache(cache, tr, label)})
		if err != nil {
			return nil, err
		}
		sh.openS = time.Since(t0).Seconds()
	} else {
		sh.d = depot.NewWithOptions(traceCache(cache, tr, label), opts)
	}
	avail := consumer.AvailabilityPolicy()
	has := false
	for _, p := range sh.d.Policies() {
		has = has || p.Name == avail.Name
	}
	if !has {
		if err := sh.d.AddPolicy(avail); err != nil {
			return nil, err
		}
	}
	ctl := controller.New(&tracedDepot{d: sh.d, tr: tr, shard: label}, controller.Options{Mode: envelope.Body, Metrics: reg})
	sh.srv, err = wire.ServeOptions(wireAt, traceHandler(ctl.Handle, tr, lControllerHandle, label),
		wire.ServerOptions{IdleTimeout: defaultIdleTimeout, Metrics: reg})
	if err != nil {
		return nil, err
	}
	qsrv := query.NewServerMetrics(sh.d, reg)
	qsrv.WireStats = sh.srv.Stats
	sh.feed = query.NewFeed(sh.d, query.FeedOptions{QueueLimit: defaultFeedQueue, Metrics: reg, Reverify: defaultReverify})
	qsrv.Feed = sh.feed
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sh.haddr = ln.Addr().String()
	sh.http = &http.Server{Handler: traceHTTP(qsrv.Handler(), tr, queryLayers, lQueryOther, label)}
	go sh.http.Serve(ln)
	return sh, nil
}

// stop ends serving without any depot shutdown work: no drain, no
// checkpoint, no close — what a SIGKILL leaves behind.
func (sh *shard) stop() {
	sh.http.Close()
	sh.srv.Close()
	sh.feed.Close()
}

// newCache builds the cache implementation inca-server uses for -cache
// kind.
func newCache(kind string) (depot.Cache, error) {
	switch kind {
	case "stream":
		return depot.NewStreamCache(), nil
	case "indexed":
		return depot.NewIndexedCache(), nil
	case "dom":
		return depot.NewDOMCache(), nil
	case "split":
		return depot.NewSplitCacheDepth(2), nil
	}
	return nil, fmt.Errorf("traced mode cannot build -cache %q", kind)
}

var cacheDefaultRE = regexp.MustCompile(`-cache string\s*\n[^\n]*\(default "([a-z]+)"\)`)

// defaultCache reads the -cache default off the server binary's usage
// text, so the traced pipeline follows the shipped default.
func defaultCache(bin string) string {
	out, _ := exec.Command(bin, "-h").CombinedOutput()
	if m := cacheDefaultRE.FindSubmatch(out); m != nil {
		return string(m[1])
	}
	return "stream"
}

type inprocTarget struct {
	spec      *spec
	tr        *tracer
	cacheKind string
	dir       string
	shards    []*shard
	// federated tier
	router *federation.Router
	rsrv   *wire.Server
	ffeed  *query.FederatedFeed
	rhttp  *http.Server
	raddr  string
	openS  float64
}

func startInproc(s *spec, dir, cacheKind string, tr *tracer, ports []int) (*inprocTarget, error) {
	t := &inprocTarget{spec: s, tr: tr, cacheKind: cacheKind, dir: dir}
	if s.shards == 0 {
		sh, err := startShard(s, dir, "127.0.0.1:0", cacheKind, tr, 0)
		if err != nil {
			return nil, err
		}
		t.shards = []*shard{sh}
		return t, nil
	}
	var members []federation.Shard
	shardOf := map[string]uint8{}
	for i := 0; i < s.shards; i++ {
		sh, err := startShard(s, dir, fmt.Sprintf("127.0.0.1:%d", ports[i]), cacheKind, tr, uint8(i+1))
		if err != nil {
			t.close()
			return nil, err
		}
		t.shards = append(t.shards, sh)
		members = append(members, federation.Shard{Wire: sh.srv.Addr(), HTTP: sh.haddr})
		shardOf[sh.haddr] = uint8(i + 1)
	}
	reg := metrics.NewRegistry()
	var err error
	t.router, err = federation.NewRouter(members, federation.RouterOptions{
		Ring:    federation.RingOptions{Replicas: federation.DefaultReplicas, Depth: federation.DefaultDepth},
		Metrics: reg,
	})
	if err != nil {
		t.close()
		return nil, err
	}
	t.rsrv, err = wire.ServeOptions("127.0.0.1:0", traceHandler(t.router.Handle, tr, lRouterHandle, 0),
		wire.ServerOptions{IdleTimeout: defaultIdleTimeout, Metrics: reg})
	if err != nil {
		t.close()
		return nil, err
	}
	client := &http.Client{Timeout: 30 * time.Second,
		Transport: &traceTransport{inner: http.DefaultTransport, tr: tr, shardOf: shardOf}}
	fed := query.NewFederated(t.router, query.FederatedOptions{Metrics: reg, PreferFollower: true, Client: client})
	t.ffeed = fed.AttachFeed(query.FeedOptions{Metrics: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, err
	}
	t.raddr = ln.Addr().String()
	t.rhttp = &http.Server{Handler: traceHTTP(fed.Handler(), tr, fedLayers, lFedOther, 0)}
	go t.rhttp.Serve(ln)
	return t, nil
}

func (t *inprocTarget) wireAddr() string {
	if t.rsrv != nil {
		return t.rsrv.Addr()
	}
	return t.shards[0].srv.Addr()
}

func (t *inprocTarget) httpAddr() string {
	if t.rhttp != nil {
		return t.raddr
	}
	return t.shards[0].haddr
}

func (t *inprocTarget) archive() (applied, matched uint64, err error) {
	for _, sh := range t.shards {
		st := sh.d.Stats().Archive
		applied += st.Applied
		matched += st.Matched
	}
	return applied, matched, nil
}

func (t *inprocTarget) cacheBytes() float64 {
	total := 0
	for _, sh := range t.shards {
		total += sh.d.Stats().CacheSize
	}
	return float64(total)
}

// The in-process pipeline shares the generator's process, so its memory
// figures include the generator.
func (t *inprocTarget) rssMB() float64  { return memMB(os.Getpid(), "VmRSS") }
func (t *inprocTarget) peakMB() float64 { return memMB(os.Getpid(), "VmHWM") }
func (t *inprocTarget) cpuS() float64   { return cpuSeconds() }

func (t *inprocTarget) crash() { t.shards[0].stop() }

func (t *inprocTarget) restart() error {
	sh, err := startShard(t.spec, t.dir, "127.0.0.1:0", t.cacheKind, t.tr, 0)
	if err != nil {
		return err
	}
	t.shards[0] = sh
	t.openS = sh.openS
	return nil
}

func (t *inprocTarget) close() {
	if t.rhttp != nil {
		t.rhttp.Close()
	}
	if t.ffeed != nil {
		t.ffeed.Close()
	}
	if t.rsrv != nil {
		t.rsrv.Close()
	}
	if t.router != nil {
		t.router.Drain()
		t.router.Close()
	}
	for _, sh := range t.shards {
		if sh != nil {
			sh.stop()
			sh.d.Close()
		}
	}
}
