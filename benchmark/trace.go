package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"cloudwalker/internal/core"
	"cloudwalker/internal/fleet"
	"cloudwalker/internal/server"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/walk"
	"cloudwalker/internal/xrand"
)

// The traced run replays a fixed prefix of the workload's stream once per
// layer depth, single-threaded, each depth calling one layer's public
// entry point from the outside:
//
//	D0 fleet.router   HTTP client → router            (fleet_scatter only)
//	D1 http           HTTP client → shard/server listener
//	D2 server         Handler().ServeHTTP on a recorder
//	D3 core|linserve  the estimator call, then core.TopKNeighbors
//	D4 walk           Scratch.DistributionsInto ×2 / SingleSourceWalkInto
//
// Every call is a span; a request's span at depth d+1 is the child of its
// span at depth d, so a layer's self time is its span minus its child's.
// Each depth runs against its own fresh server, so the cache state every
// depth sees is the workload's (cold stays cold), and because estimators
// are deterministic in the query every depth does identical work: D0–D3
// answers are asserted bit-identical.

const outDir = "benchmark/out"

type span struct {
	Name    string `json:"name"`
	Request int    `json:"request_id"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer buffers spans in memory and writes them out once, at the end.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) add(name string, req int, parent string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{name, req, parent, s, s + d.Nanoseconds()})
}

func (t *tracer) flush(workload string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, "trace."+workload+".jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// usMedian is the median of durations in microseconds.
func usMedian(d []time.Duration) float64 { return float64(medianDur(d)) / 1e3 }

// traceBlock is how many requests one depth replays before the next depth
// takes its turn. Replaying the whole prefix depth by depth would put
// seconds between a request's spans, and this box's speed drifts by more
// than a layer's self time over seconds; replaying request by request
// would hand every depth but the first a CPU cache already holding the
// query's walk. A block of cold queries is long enough to turn the L2
// over between depths and short enough that all depths see the same
// machine.
const traceBlock = 50

// pass is one depth's replay of the traced prefix: what it calls, and per
// request how long the call took (0 where the depth has nothing to call —
// a cache hit has no estimator span).
type pass struct {
	name, parent string
	tr           *tracer
	call         func(i int, r request) (answer, time.Duration, error)
	check        func(request) bool // nil: compare every answer with the outermost depth's
	unchecked    bool               // the call returns no answer to compare
	dur          []time.Duration
	ans          []answer
}

// replay runs the passes over reqs, interleaved in blocks, then checks
// that every depth that returns the served answer returned the same bits
// as the first pass. The first two passes are the outermost depth untraced
// and traced; they swap places every block, so neither always runs on the
// cache the other left behind.
func replay(reqs []request, passes []*pass, res *runResult) {
	for _, p := range passes {
		p.dur, p.ans = make([]time.Duration, len(reqs)), make([]answer, len(reqs))
	}
	order := append([]*pass(nil), passes...)
	for lo := 0; lo < len(reqs); lo += traceBlock {
		hi := min(lo+traceBlock, len(reqs))
		for _, p := range order {
			for i := lo; i < hi; i++ {
				t0 := time.Now()
				a, d, err := p.call(i, reqs[i])
				if d == 0 && err == nil {
					continue
				}
				p.dur[i], p.ans[i] = d, a
				p.tr.add(p.name, i, p.parent, t0, d)
				res.Attempted++
				if err != nil {
					res.Failed++
					res.problem("traced request %d at %s: %v", i, p.name, err)
				}
			}
		}
		order[0], order[1] = order[1], order[0]
	}
	for _, p := range passes[1:] {
		for i, r := range reqs {
			if p.dur[i] == 0 || p.unchecked || (p.check != nil && !p.check(r)) {
				continue
			}
			if !p.ans[i].equal(passes[0].ans[i]) {
				res.Failed++
				res.problem("traced request %d: the answer at %s differs from the outermost depth's", i, p.name)
			}
		}
	}
}

// wall times a call for passes whose span is the whole call.
func wall(fn func() (answer, error)) (answer, time.Duration, error) {
	t0 := time.Now()
	a, err := fn()
	return a, time.Since(t0), err
}

// anyKind selects the requests of every kind.
const anyKind reqKind = 255

// ofKind returns the measured durations of the requests of one kind.
func ofKind(reqs []request, kind reqKind, d []time.Duration) []time.Duration {
	var out []time.Duration
	for i, r := range reqs {
		if (kind == anyKind || r.kind == kind) && d[i] > 0 {
			out = append(out, d[i])
		}
	}
	return out
}

// selfNoise is the share of the parent span's median by which a layer's
// median self time may read below zero. Where a layer adds microseconds
// to a millisecond call (core over the walk kernels) its self time sits at
// zero give or take the replay's noise. Further below, the child depth is
// doing work its parent does not contain: the trace is broken, and at full
// size the run fails.
const selfNoise = 0.05

// setSelf records a layer's median self time in µs over the requests of
// one kind: parent − child, request by request, where both depths ran.
func setSelf(res *runResult, strict bool, name string, reqs []request, kind reqKind, parent, child []time.Duration) {
	var self, whole []time.Duration
	for i, r := range reqs {
		if (kind == anyKind || r.kind == kind) && parent[i] > 0 && child[i] > 0 {
			self = append(self, parent[i]-child[i])
			whole = append(whole, parent[i])
		}
	}
	if len(self) == 0 {
		return
	}
	us := usMedian(self)
	res.Values[name] = us
	switch floor := -selfNoise * usMedian(whole); {
	case us < floor && strict:
		res.problem("median self time %s = %.1f us: the child depth is slower than its parent (%.1f us) by more than noise", name, us, usMedian(whole))
	case us < 0:
		warn("negative median self time %s = %.1f us", name, us)
	}
}

// meanNs is the mean of d in nanoseconds per unit. The walk kernels'
// per-step costs use it rather than a median: a third of all nodes have no
// in-links and their walks end at once, so the median query sits on the
// edge between two populations and jumps between them from seed to seed.
func meanNs(d []time.Duration, units float64) float64 {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return float64(sum) / float64(len(d)) / units
}

// traceServing replays the traced prefix at every depth and derives the
// per-layer metrics of a serving workload.
func (e *env) traceServing(hc *http.Client, st stream, res *runResult, sz sizes) error {
	first, n := 0, e.w.tracePrefix(sz)
	if e.w.zipf {
		first = sz.zipfWarmup // each depth's server replays the warm-up first
	}
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = st(first + i)
	}
	tr := &tracer{epoch: time.Now()}
	v := res.Values

	// Every depth gets its own server in the workload's cache state:
	// fresh, and on zipf_mix warmed by the same prefix as the live one.
	var tiers []*tier
	defer func() {
		for _, t := range tiers {
			t.close()
		}
	}()
	warm := func(srv *server.Server) error {
		if !e.w.zipf {
			return nil
		}
		h := srv.Handler()
		return runClosed(clients, 0, first, time.Hour, func(idx int) error {
			_, err := inProcess(h, st(idx))
			return err
		}).firstErr
	}
	newTier := func(shards int, routed bool) (*tier, error) {
		t, err := e.startTier(hc, shards, routed)
		if err != nil {
			return nil, err
		}
		tiers = append(tiers, t)
		return t, warm(t.shards[0].srv)
	}
	httpPass := func(name, parent string, t *tracer, shards int, routed bool) (*pass, error) {
		s, err := newTier(shards, routed)
		if err != nil {
			return nil, err
		}
		return &pass{name: name, parent: parent, tr: t, call: func(_ int, r request) (answer, time.Duration, error) {
			return wall(func() (answer, error) { return overHTTP(hc, s.front.url(), r, "") })
		}}, nil
	}

	// The outermost depth twice: once untraced as the reference for what
	// recording spans costs, once traced.
	outer := "http"
	shards := 1
	if e.w.fleet {
		outer, shards = "fleet.router", fleetShards
	}
	plain, err := httpPass("", "", nil, shards, e.w.fleet)
	if err != nil {
		return err
	}
	top, err := httpPass(outer, "", tr, shards, e.w.fleet)
	if err != nil {
		return err
	}
	passes := []*pass{plain, top}
	d1 := top
	if e.w.fleet {
		if d1, err = shardPass(hc, tr, newTier); err != nil {
			return err
		}
		passes = append(passes, d1)
	}

	// D2: the handler in-process.
	srv, err := e.newServer("")
	if err != nil {
		return err
	}
	if err := warm(srv); err != nil {
		return err
	}
	h := srv.Handler()
	d2 := &pass{name: "server", parent: "http", tr: tr, call: func(_ int, r request) (answer, time.Duration, error) {
		return wall(func() (answer, error) { return inProcess(h, r) })
	}}

	// D3: the estimator call, for requests the handler had to compute.
	// core.topk is a second span beside it: selection is core's work too.
	topk := make([]time.Duration, n)
	var walkers, budget int
	layer := "core"
	if e.w.lin {
		layer = "linserve"
	}
	d3 := &pass{name: layer, parent: "server", tr: tr, call: func(i int, r request) (answer, time.Duration, error) {
		if d2.ans[i].cached {
			return answer{}, 0, nil
		}
		t0 := time.Now()
		a, cost, err := e.direct(r)
		if r.kind == kindSource {
			topk[i] = cost.topk
			tr.add("core.topk", i, "server", t0.Add(cost.estimate), cost.topk)
		}
		if r.kind == kindPairEps {
			walkers, budget = walkers+cost.walkers, budget+cost.budget
		}
		return a, cost.estimate, err
	}}
	passes = append(passes, d2, d3)

	// D4: the walk kernels under a fixed-budget Monte Carlo query.
	var d4 *pass
	var wk *walkReplay
	if !e.w.lin {
		wk = newWalkReplay(e)
		d4 = &pass{name: "walk", parent: "core", tr: tr, unchecked: true, call: func(i int, r request) (answer, time.Duration, error) {
			if d2.ans[i].cached || (r.kind != kindPair && r.kind != kindSource) {
				return answer{}, 0, nil
			}
			return wall(func() (answer, error) { wk.run(r); return answer{}, nil })
		}}
		passes = append(passes, d4)
	}
	replay(reqs, passes, res)

	// What recording spans costs: the outermost depth traced over untraced,
	// request by request. The two passes of a request run within a block of
	// each other and swap places every block, so the median of the paired
	// ratios cancels machine drift and position; a ratio of two medians does
	// neither (it read 0.91–1.19 for passes that do identical work).
	var overhead []float64
	for i := range reqs {
		if plain.dur[i] > 0 && top.dur[i] > 0 {
			overhead = append(overhead, float64(top.dur[i])/float64(plain.dur[i]))
		}
	}
	v["trace.overhead_ratio"] = median(overhead)
	if v["trace.overhead_ratio"] > 1.05 {
		warn("%s: trace.overhead_ratio %.3f > 1.05", e.w.name, v["trace.overhead_ratio"])
	}
	if e.w.fleet {
		setSelf(res, sz.strict, "fleet.router_self_us_pair", reqs, kindPair, top.dur, d1.dur)
		setSelf(res, sz.strict, "fleet.scatter_self_us_source", reqs, kindSource, top.dur, d1.dur)
		v["fleet.ring_owner_ns"] = ringCost(fleet.NewRing(e.live.addrs(), 0), reqs)
	}
	setSelf(res, sz.strict, "http.rtt_self_us", reqs, anyKind, d1.dur, d2.dur)
	setSelf(res, sz.strict, "server.miss_self_us", reqs, kindPair, d2.dur, d3.dur)
	d3src := make([]time.Duration, n) // estimator call plus top-k: all of core under the handler
	for i := range d3src {
		if d3.dur[i] > 0 {
			d3src[i] = d3.dur[i] + topk[i]
		}
	}
	setSelf(res, sz.strict, "server.source_miss_self_us", reqs, kindSource, d2.dur, d3src)
	if e.w.lin {
		v["linserve.pair_us"] = usMedian(ofKind(reqs, kindPair, d3.dur))
		v["linserve.source_us"] = usMedian(ofKind(reqs, kindSource, d3.dur))
		v["linserve.allocs_per_op"] = allocsPerOp(reqs, func(r request) bool {
			_, _, err := e.direct(r)
			return err == nil
		})
	} else {
		o := indexOpts
		setSelf(res, sz.strict, "core.pair_self_us", reqs, kindPair, d3.dur, d4.dur)
		setSelf(res, sz.strict, "core.source_self_us", reqs, kindSource, d3.dur, d4.dur)
		v["core.topk_us"] = usMedian(ofKind(reqs, kindSource, topk))
		v["walk.pair_dist_ns_per_step"] = meanNs(ofKind(reqs, kindPair, d4.dur), float64(2*o.RPrime*o.T))
		v["walk.source_ns_per_step"] = meanNs(ofKind(reqs, kindSource, d4.dur), float64(o.RPrime*o.T*(o.T+3)/2))
		v["walk.allocs_per_op"] = allocsPerOp(reqs, func(r request) bool {
			if r.kind != kindPair && r.kind != kindSource {
				return false
			}
			wk.run(r)
			return true
		})
		v["core.adaptive_walkers_ratio"] = ratio(float64(walkers), float64(budget))
	}
	if e.w.zipf {
		v["core.pairs_batch_us_per_pair"] = e.batchCost(reqs)
	}

	// The prefix once more through the D2 server: now every request is a
	// cache hit, which times the hit path and counts its allocations.
	var hitDur []time.Duration
	v["server.allocs_per_hit"] = allocsPerOp(reqs, func(r request) bool {
		a, d, err := wall(func() (answer, error) { return inProcess(h, r) })
		if err != nil || !a.cached {
			res.problem("re-issued request was not served from the cache (err=%v)", err)
		}
		hitDur = append(hitDur, d)
		return true
	})
	v["server.hit_self_us"] = usMedian(hitDur)

	v["walk.row_ns_per_step"] = rowCost(e, sz)
	cacheCost(v)
	return tr.flush(e.w.name)
}

// shardPass is D1 of fleet_scatter: straight at the shards the router
// would ask, over a shard set of its own. A /pair goes to its ring owner.
// A /source becomes three part=i/3 requests, one per shard, issued one
// after the other; the depth's duration is the slowest of them, which is
// what the scatter waits for.
func shardPass(hc *http.Client, tr *tracer, newTier func(int, bool) (*tier, error)) (*pass, error) {
	s, err := newTier(fleetShards, false)
	if err != nil {
		return nil, err
	}
	ring := fleet.NewRing(s.addrs(), 0)
	byAddr := map[string]*endpoint{}
	for _, sh := range s.shards {
		byAddr[sh.addr] = sh
	}
	p := &pass{name: "http", parent: "fleet.router", tr: tr, check: func(r request) bool { return r.kind == kindPair }}
	p.call = func(i int, r request) (answer, time.Duration, error) {
		if r.kind == kindPair {
			owner := byAddr[ring.Owner(fleet.PairKey(core.CanonicalPair(r.i, r.j)))]
			return wall(func() (answer, error) { return overHTTP(hc, owner.url(), r, "") })
		}
		var slowest time.Duration
		for part, sh := range s.shards {
			suffix := "&part=" + strconv.Itoa(part) + "/" + strconv.Itoa(fleetShards)
			_, d, err := wall(func() (answer, error) { return overHTTP(hc, sh.url(), r, suffix) })
			if err != nil {
				return answer{}, d, err
			}
			slowest = max(slowest, d)
		}
		return answer{}, slowest, nil
	}
	return p, nil
}

// walkReplay calls the walk kernels the way core.Querier does for a
// fixed-budget query. The stream derivations are copied from
// core/query.go as of the commit that added this benchmark; should core
// change them the kernels still do the same nominal work (same start
// node, T and R'), which is all the per-step cost needs.
type walkReplay struct {
	e          *env
	sc         *walk.Scratch
	bufA, bufB walk.DistBuf
	ct         []float64
	out        sparse.Vector
}

func newWalkReplay(e *env) *walkReplay {
	ct := make([]float64, indexOpts.T+1)
	ct[0] = 1
	for t := 1; t <= indexOpts.T; t++ {
		ct[t] = ct[t-1] * indexOpts.C
	}
	return &walkReplay{e: e, sc: walk.NewScratch(e.g.NumNodes()), ct: ct}
}

func (w *walkReplay) run(r request) {
	o, vw := indexOpts, w.e.g.WalkView()
	if r.kind == kindSource {
		w.sc.SingleSourceWalkInto(vw, r.i, o.T, o.RPrime, w.ct, w.e.q.Index().Diag,
			xrand.Mix(o.Seed, uint64(r.i)*2654435761+17), &w.out)
		return
	}
	i, j := core.CanonicalPair(r.i, r.j)
	stream := func(side int) uint64 {
		return xrand.Mix(o.Seed, uint64(i)*0x9e3779b9+uint64(j)*0x85ebca6b+uint64(side))
	}
	w.sc.DistributionsInto(&w.bufA, vw, i, o.T, o.RPrime, stream(0))
	w.sc.DistributionsInto(&w.bufB, vw, j, o.T, o.RPrime, stream(1))
}

// allocSample bounds how many requests an allocation count replays.
const allocSample = 200

// allocsPerOp counts heap allocations per call of op over the first
// allocSample requests op accepts, with nothing else running.
func allocsPerOp(reqs []request, op func(request) bool) float64 {
	var m0, m1 runtime.MemStats
	ops := 0
	runtime.ReadMemStats(&m0)
	for _, r := range reqs {
		if ops < allocSample && op(r) {
			ops++
		}
	}
	runtime.ReadMemStats(&m1)
	return ratio(float64(m1.Mallocs-m0.Mallocs), float64(ops))
}

// batchCost is the per-pair cost of core.Querier.SinglePairs on the
// prefix's /pairs batches.
func (e *env) batchCost(reqs []request) float64 {
	var d []time.Duration
	for _, r := range reqs {
		if r.kind != kindPairs {
			continue
		}
		_, cost, err := e.direct(r)
		if err != nil {
			return 0
		}
		d = append(d, cost.estimate/time.Duration(len(r.batch)))
	}
	return usMedian(d)
}

// rowCost times walk.RowEstimator.EstimateRowInto, the indexing kernel,
// over evenly spread rows: ns per nominal walker step (R·T per row).
func rowCost(e *env, sz sizes) float64 {
	est := walk.NewRowEstimator(e.g, indexOpts.R)
	var out sparse.Vector
	n := e.g.NumNodes()
	d := make([]time.Duration, 0, sz.rowSample)
	for s := 0; s < sz.rowSample; s++ {
		row := int(int64(s) * int64(n) / int64(sz.rowSample))
		t0 := time.Now()
		est.EstimateRowInto(row, indexOpts.T, indexOpts.C, indexOpts.Seed, &out)
		d = append(d, time.Since(t0))
	}
	return float64(medianDur(d)) / float64(indexOpts.R*indexOpts.T)
}

// nsPerOp times fn over each key for several rounds and returns the median
// round's cost per call in nanoseconds.
func nsPerOp(keys []string, fn func(key string)) float64 {
	var rounds []float64
	for round := 0; round < 9; round++ {
		t0 := time.Now()
		for _, k := range keys {
			fn(k)
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/float64(len(keys)))
	}
	return median(rounds)
}

// cacheCost times server.Cache.Get and Put on a cache of the serving
// default shape, full, with keys shaped like the server's.
func cacheCost(v map[string]float64) {
	c, err := server.NewCache(server.DefaultCacheSize, server.DefaultCacheShards)
	if err != nil {
		return
	}
	keys := make([]string, 2*server.DefaultCacheSize)
	for i := range keys {
		keys[i] = "g0/p/" + strconv.Itoa(i*7919) + "/" + strconv.Itoa(i*104729)
	}
	v["server.cache_put_ns"] = nsPerOp(keys, func(k string) { c.Put(k, 0.5) })
	v["server.cache_get_ns"] = nsPerOp(keys, func(k string) { c.Get(k) })
}

// ringCost times fleet.Ring.Owner on the prefix's pair keys.
func ringCost(ring *fleet.Ring, reqs []request) float64 {
	var keys []string
	for _, r := range reqs {
		if r.kind == kindPair {
			keys = append(keys, fleet.PairKey(core.CanonicalPair(r.i, r.j)))
		}
	}
	if len(keys) == 0 {
		return 0
	}
	return nsPerOp(keys, func(k string) { ring.Owner(k) })
}

// traceBuild splits one index build at its public seam and times the
// indexing kernel; spans are the two stages.
func traceBuild(e *env, res *runResult, sz sizes) error {
	tr := &tracer{epoch: time.Now()}
	t0 := time.Now()
	if _, err := splitBuild(e.g, res.Values); err != nil {
		return err
	}
	bs := time.Duration(res.Values["core.build_system_s"] * float64(time.Second))
	si := time.Duration(res.Values["core.solve_index_s"] * float64(time.Second))
	tr.add("core.build_index", 0, "", t0, bs+si)
	tr.add("core.build_system", 0, "core.build_index", t0, bs)
	tr.add("core.solve_index", 0, "core.build_index", t0.Add(bs), si)
	res.Values["walk.row_ns_per_step"] = rowCost(e, sz)
	return tr.flush(e.w.name)
}
