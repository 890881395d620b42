package main

import (
	"fmt"
	"sort"
	"strings"
)

// statLayers are the layers whose count, busy time, p50 and p99 are
// reported as per-layer metrics.
var statLayers = []uint8{
	lWireBatch, lControllerHandle, lDepotStore,
	lCacheUpdate, lCacheQuery, lCacheReports, lCacheDump,
	lQueryCache, lQueryReports, lQueryArchive,
	lRouterHandle, lFedCache, lFedReports, lShardCall,
}

func isQuery(l uint8) bool { return l >= lQueryCache && l <= lQueryOther }
func isFed(l uint8) bool   { return l >= lFedCache && l <= lFedOther }
func isCacheRead(l uint8) bool {
	return l == lCacheQuery || l == lCacheReports || l == lCacheDump
}

// budget is the per-layer breakdown of one traced run.
type budget struct {
	metrics map[string]float64
	parent  []int
	table   string
}

// link gives every span its parent. Write-path spans are joined by
// request ID; read-path spans by time containment within the same shard.
func link(spans []span) []int {
	parent := make([]int, len(spans))
	type key struct {
		layer, shard uint8
		req          uint64
	}
	byReq := map[key]int{}
	batchOf := map[uint64]int{}
	for i, s := range spans {
		parent[i] = -1
		switch {
		case s.layer == lWireBatch:
			for r := s.req; r < s.req+uint64(s.n); r++ {
				batchOf[r] = i
			}
		case s.req > 0:
			byReq[key{s.layer, s.shard, s.req}] = i
		}
	}
	// Read-path parent candidates, by (layer group, shard), sorted by
	// start; one reader means candidates of one group never overlap.
	type group struct {
		kind  uint8 // 0 client read, 1 query handler, 2 fed handler, 3 shard call
		shard uint8
	}
	cands := map[group][]int{}
	for i, s := range spans {
		var g group
		switch {
		case s.layer == lClientRead:
			g = group{0, 0}
		case isQuery(s.layer):
			g = group{1, s.shard}
		case isFed(s.layer):
			g = group{2, 0}
		case s.layer == lShardCall:
			g = group{3, s.shard}
		default:
			continue
		}
		cands[g] = append(cands[g], i)
	}
	for _, c := range cands {
		sort.Slice(c, func(a, b int) bool { return spans[c[a]].start < spans[c[b]].start })
	}
	contain := func(g group, s span) int {
		c := cands[g]
		j := sort.Search(len(c), func(k int) bool { return spans[c[k]].start > s.start }) - 1
		if j >= 0 && spans[c[j]].end >= s.end {
			return c[j]
		}
		return -1
	}
	federated := len(cands[group{2, 0}]) > 0
	for i, s := range spans {
		p, ok := -1, false
		switch {
		case s.layer == lCacheUpdate:
			p, ok = byReq[key{lDepotStore, s.shard, s.req}]
		case s.layer == lDepotStore:
			p, ok = byReq[key{lControllerHandle, s.shard, s.req}]
		case s.layer == lControllerHandle && s.shard > 0:
			p, ok = byReq[key{lRouterHandle, 0, s.req}]
		case s.layer == lControllerHandle || s.layer == lRouterHandle:
			p, ok = batchOf[s.req]
		case isCacheRead(s.layer):
			p = contain(group{1, s.shard}, s)
		case isQuery(s.layer) && federated:
			p = contain(group{3, s.shard}, s)
		case isQuery(s.layer) || isFed(s.layer):
			p = contain(group{0, 0}, s)
		case s.layer == lShardCall:
			p = contain(group{2, 0}, s)
		}
		if ok || p >= 0 {
			parent[i] = p
		}
	}
	return parent
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// analyze computes the per-layer budget over the spans that start inside
// the measured window [lo, hi).
func analyze(spans []span, lo, hi int64) *budget {
	parent := link(spans)
	children := make([][]int, len(spans))
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := func(i int) int64 {
		s := spans[i]
		iv := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			iv = append(iv, [2]int64{spans[c].start, spans[c].end})
		}
		return s.end - s.start - coverage(iv, s.start, s.end)
	}
	in := func(s span) bool { return s.start >= lo && s.start < hi }

	type acc struct {
		durs  []float64 // µs
		selfs []float64 // µs
		busy  int64
	}
	type row struct{ layer, shard uint8 }
	rows := map[row]*acc{}
	byLayer := make([]acc, numLayers)
	var unpack, insert, archive, depotSelf, lag []float64
	var reads, conditional, notModified, readBytes, fedReads, shardCalls float64
	for i, s := range spans {
		if !in(s) {
			continue
		}
		d := s.end - s.start
		sf := self(i)
		if s.layer == lDepotStore {
			sf = d - s.unpack - s.insert - s.archive
			unpack = append(unpack, float64(s.unpack)/1e3)
			insert = append(insert, float64(s.insert)/1e3)
			archive = append(archive, float64(s.archive)/1e3)
			depotSelf = append(depotSelf, float64(sf)/1e3)
		}
		for _, a := range []*acc{&byLayer[s.layer], rowAcc(rows, row{s.layer, s.shard})} {
			a.durs = append(a.durs, float64(d)/1e3)
			a.selfs = append(a.selfs, float64(sf)/1e3)
			a.busy += d
		}
		switch {
		case s.layer == lRouterHandle:
			for _, c := range children[i] {
				if spans[c].layer == lControllerHandle {
					lag = append(lag, float64(spans[c].start-s.end)/1e6)
				}
			}
		case s.layer == lShardCall:
			shardCalls++
		case isFed(s.layer) || isQuery(s.layer) && s.shard == 0:
			reads++
			readBytes += float64(s.bytes)
			if isFed(s.layer) {
				fedReads++
			}
			if s.n == 1 {
				conditional++
				if s.status == 304 {
					notModified++
				}
			}
		}
	}

	m := map[string]float64{}
	for _, l := range statLayers {
		a := &byLayer[l]
		sort.Float64s(a.durs)
		name := layerNames[l]
		m[name+".count"] = float64(len(a.durs))
		m[name+".busy_s"] = float64(a.busy) / 1e9
		m[name+".p50_us"] = quantile(a.durs, 0.50)
		m[name+".p99_us"] = quantile(a.durs, 0.99)
	}
	m["wire.self_us"] = mean(byLayer[lWireBatch].selfs)
	m["controller.self_us"] = mean(byLayer[lControllerHandle].selfs)
	m["depot.self_us"] = mean(depotSelf)
	m["depot.unpack_us"] = mean(unpack)
	m["depot.insert_us"] = mean(insert)
	m["depot.archive_us"] = mean(archive)
	var qs, fs []float64
	for l := lQueryCache; l <= lQueryOther; l++ {
		qs = append(qs, byLayer[l].selfs...)
	}
	for l := lFedCache; l <= lFedOther; l++ {
		fs = append(fs, byLayer[l].selfs...)
	}
	m["query.self_us"] = mean(qs)
	m["fed.self_us"] = mean(fs)
	m["query.not_modified_ratio"] = ratio(notModified, conditional)
	m["query.bytes_per_read"] = ratio(readBytes, reads)
	sort.Float64s(lag)
	m["router.delivery_lag_ms"] = quantile(lag, 0.5)
	m["fed.shard_calls_per_read"] = ratio(shardCalls, fedReads)

	// The Markdown budget: one row per layer and shard.
	var keys []row
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].layer != keys[b].layer {
			return keys[a].layer < keys[b].layer
		}
		return keys[a].shard < keys[b].shard
	})
	var t strings.Builder
	t.WriteString("| layer | shard | count | busy s | p50 µs | p99 µs | mean self µs |\n")
	t.WriteString("|---|---|---:|---:|---:|---:|---:|\n")
	for _, k := range keys {
		a := rows[k]
		sort.Float64s(a.durs)
		shard := "-"
		if k.shard > 0 {
			shard = fmt.Sprintf("shard%d", k.shard-1)
		}
		fmt.Fprintf(&t, "| %s | %s | %d | %.3f | %.1f | %.1f | %.1f |\n", layerNames[k.layer], shard,
			len(a.durs), float64(a.busy)/1e9, quantile(a.durs, 0.5), quantile(a.durs, 0.99), mean(a.selfs))
	}
	return &budget{metrics: m, parent: parent, table: t.String()}
}

func rowAcc[K comparable, V any](m map[K]*V, k K) *V {
	v := m[k]
	if v == nil {
		v = new(V)
		m[k] = v
	}
	return v
}
