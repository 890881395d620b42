package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"inca/internal/report"
)

// spec describes one workload: the branch population, the report sizes,
// and which clients drive the server. Every workload opens at most two
// load connections.
type spec struct {
	name   string
	sites  int   // branches = sites × probes, spread over sites
	probes int   // per site
	sizes  []int // report sizes, cycled over branches

	writers int // closed-loop agent connections (wire.BatchClient)
	// pacedPerSec > 0 replaces the closed-loop writers with one open-loop
	// writer that sends pacedBatch reports (default 1) at each due time,
	// pacedPerSec reports a second.
	pacedPerSec int
	pacedBatch  int
	fromDue     bool // time paced writes from their due time, not their send
	// fixedPerSec > 0 makes the closed-loop writers send a fixed number
	// of reports, fixedPerSec × --seconds, instead of writing until the
	// clock runs out (durable: every restart replays the same log).
	fixedPerSec int

	reader     string // "", "depot" or "federated": one HTTP reader
	readPerSec int    // > 0: the reader is paced at this many reads a second
	feed       bool   // one SSE /feed subscriber
	disk       bool   // -storage disk
	shards     int    // > 0: a -federate router over this many shard processes
}

var workloads = map[string]*spec{
	"ingest": {name: "ingest", sites: 32, probes: 4, sizes: []int{851},
		pacedPerSec: writeRate, pacedBatch: batchSize, feed: true},
	"query": {name: "query", sites: 32, probes: 7, sizes: []int{851, 9257, 23168, 45527},
		pacedPerSec: 10, fromDue: true, reader: "depot"},
	"durable": {name: "durable", sites: 32, probes: 32, sizes: []int{851},
		writers: 2, fixedPerSec: 300, disk: true},
	"federated": {name: "federated", sites: 32, probes: 4, sizes: []int{851},
		pacedPerSec: writeRate, pacedBatch: batchSize, reader: "federated", readPerSec: 10, shards: 2},
}

const (
	batchSize = 8 // reports per agent batch
	// writeRate is the paced offered load of ingest and federated, in
	// reports a second: about a quarter of what one closed-loop connection
	// reaches on two vCPUs, so the servers keep idle CPU and a busy
	// neighbour on a shared host moves the figures little.
	writeRate = 800
	// policyName archives the value every report carries; the policy is
	// uploaded through /policy during set-up.
	policyName = "bench"
	policyPath = "value,statistic=sample,bench=probe"
	// step is both the policy step and the gap between one branch's
	// consecutive report timestamps, so every report completes exactly one
	// archive row holding its own value.
	step     = time.Minute
	hostname = "bench.example.org"
)

var baseGMT = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func policyXML() string {
	return fmt.Sprintf(`<archivalPolicy name=%q prefix="vo=bench" path=%q step="1m" granularity="1" history="1h"/>`,
		policyName, policyPath)
}

func branchName(site, probe int) string {
	return fmt.Sprintf("probe=p%03d,site=s%02d,vo=bench", probe, site)
}

func siteName(site int) string { return fmt.Sprintf("site=s%02d,vo=bench", site) }

// template is one marshalled report with fixed-width placeholders for the
// fields that change per report, so building a report is a copy and three
// overwrites instead of an XML encode.
type template struct {
	buf                    []byte
	gmtOff, valOff, seqOff int
}

const (
	valDigits = 6
	seqDigits = 12
)

func newTemplate(size int) (*template, error) {
	build := func(pad int) ([]byte, error) {
		r := report.New("bench.probe", "1.0", hostname, baseGMT)
		body := report.Branch("bench", "probe",
			report.Branch("statistic", "sample",
				report.Leaf("value", string(bytes.Repeat([]byte("0"), valDigits))),
				report.Leaf("seq", string(bytes.Repeat([]byte("9"), seqDigits)))))
		if pad > 0 {
			body.Add(report.Leaf("pad", string(bytes.Repeat([]byte("x"), pad))))
		}
		r.Body = body
		return report.Marshal(r)
	}
	bare, err := build(0)
	if err != nil {
		return nil, err
	}
	padded, err := build(1)
	if err != nil {
		return nil, err
	}
	pad := size - len(bare) - (len(padded) - len(bare) - 1)
	if pad < 1 {
		return nil, fmt.Errorf("report size %d below the %d-byte minimum", size, len(padded))
	}
	buf, err := build(pad)
	if err != nil {
		return nil, err
	}
	if len(buf) != size {
		return nil, fmt.Errorf("report template is %d bytes, want %d", len(buf), size)
	}
	t := &template{buf: buf}
	t.gmtOff = bytes.Index(buf, []byte(baseGMT.Format(time.RFC3339)))
	t.valOff = bytes.Index(buf, []byte("<value>")) + len("<value>")
	t.seqOff = bytes.Index(buf, []byte("<seq>")) + len("<seq>")
	if t.gmtOff < 0 || t.valOff < len("<value>") || t.seqOff < len("<seq>") {
		return nil, fmt.Errorf("report template lacks a placeholder")
	}
	return t, nil
}

func putDigits(dst []byte, v uint64) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
}

func (t *template) render(gmt time.Time, value int, seq uint64) []byte {
	b := append([]byte(nil), t.buf...)
	copy(b[t.gmtOff:], gmt.Format(time.RFC3339))
	putDigits(b[t.valOff:t.valOff+valDigits], uint64(value))
	putDigits(b[t.seqOff:t.seqOff+seqDigits], seq)
	return b
}

// seqOf returns the sequence number a generated report carries, found by
// its <seq> element; ok is false for bytes the generator did not write.
func seqOf(b []byte) (uint64, bool) {
	i := bytes.Index(b, []byte("<seq>"))
	if i < 0 || i+len("<seq>")+seqDigits > len(b) {
		return 0, false
	}
	v, err := strconv.ParseUint(string(b[i+len("<seq>"):i+len("<seq>")+seqDigits]), 10, 64)
	return v, err == nil
}

func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// ledger is the generator's record of everything it wrote: per branch the
// last acked report and value, and per sequence number the report's
// creation stamp and checksum, so feed events can be matched to writes.
type ledger struct {
	spec      *spec
	names     []string
	templates []*template // per branch

	mu      sync.Mutex
	nextSeq uint64
	created []int64 // by seq: creation time, ns since epoch
	sums    []uint64
	branch  []int32

	// per branch; written only by the branch's own writer
	k       []int
	lastSeq []uint64
	lastVal []int
	last    [][]byte
}

func newLedger(s *spec) (*ledger, error) {
	bySize := map[int]*template{}
	l := &ledger{spec: s}
	for site := 0; site < s.sites; site++ {
		for probe := 0; probe < s.probes; probe++ {
			size := s.sizes[len(l.names)%len(s.sizes)]
			t := bySize[size]
			if t == nil {
				var err error
				if t, err = newTemplate(size); err != nil {
					return nil, err
				}
				bySize[size] = t
			}
			l.names = append(l.names, branchName(site, probe))
			l.templates = append(l.templates, t)
		}
	}
	n := len(l.names)
	l.k = make([]int, n)
	l.lastSeq = make([]uint64, n)
	l.lastVal = make([]int, n)
	l.last = make([][]byte, n)
	return l, nil
}

// reserve hands out n consecutive sequence numbers, stamping their
// creation time now.
func (l *ledger) reserve(n int) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	first := l.nextSeq
	l.nextSeq += uint64(n)
	at := now()
	for i := 0; i < n; i++ {
		l.created = append(l.created, at)
		l.sums = append(l.sums, 0)
		l.branch = append(l.branch, -1)
	}
	return first
}

// make renders the next report for branch b under seq. Only b's own
// writer may call it.
func (l *ledger) make(b int, seq uint64, rng *rand.Rand) []byte {
	value := rng.Intn(1000000)
	data := l.templates[b].render(baseGMT.Add(time.Duration(l.k[b])*step), value, seq)
	l.k[b]++
	l.lastSeq[b] = seq
	l.lastVal[b] = value
	l.last[b] = data
	sum := checksum(data)
	l.mu.Lock()
	l.sums[seq] = sum
	l.branch[seq] = int32(b)
	l.mu.Unlock()
	return data
}

// lookup returns what the ledger knows about seq.
func (l *ledger) lookup(seq uint64) (created int64, sum uint64, b int, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq >= uint64(len(l.sums)) || l.branch[seq] < 0 {
		return 0, 0, 0, false
	}
	return l.created[seq], l.sums[seq], int(l.branch[seq]), true
}

func (l *ledger) written() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}
