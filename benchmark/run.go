package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"cloudwalker/internal/core"
	"cloudwalker/internal/server"
)

// runResult is one run of one workload: either the end-to-end metrics
// (tracing off) or the per-layer metrics (traced run), never both — the
// end-to-end numbers are always measured with tracing off.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"-"`
	// AsMeasured holds the end-to-end figures before they were brought to
	// nominal machine speed, and the slowdown they were divided by.
	AsMeasured map[string]float64 `json:"as_measured,omitempty"`
	// MaxAbsErr is the workload's error against internal/exact on the side
	// graph. It is deterministic, so -compare holds it to accuracyBound.
	MaxAbsErr float64  `json:"max_abs_err"`
	Problems  []string `json:"problems,omitempty"`
	Notes     []string `json:"notes,omitempty"`
}

func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// warn reports a timing-dependent oddity. It never fails the run: a
// verdict on correctness must not depend on how loaded the box is.
func warn(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "warning: "+format+"\n", args...)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// sampleEvery is the answer-check sampling: one response in this many is
// kept and compared bit for bit with a direct estimator call after the
// window (comparing inside it would spend the cores being measured).
const (
	sampleEvery = 64
	maxSamples  = 512
)

type sampled struct {
	req request
	ans answer
}

// sampler keeps every sampleEvery-th answer of the window.
type sampler struct {
	mu   sync.Mutex
	kept []sampled
}

func (s *sampler) offer(idx int, r request, a answer) {
	if idx%sampleEvery != 0 {
		return
	}
	s.mu.Lock()
	if len(s.kept) < maxSamples {
		s.kept = append(s.kept, sampled{r, a})
	}
	s.mu.Unlock()
}

// verify recomputes every kept answer through a direct estimator call
// and counts mismatches. A routed fleet answer is compared the same way:
// the scatter-gathered top-k must equal the single-node top-k, ties
// included.
func (s *sampler) verify(e *env, res *runResult) {
	for _, k := range s.kept {
		want, _, err := e.direct(k.req)
		if err != nil || !k.ans.equal(want) {
			res.Failed++
			path, _ := k.req.path()
			res.problem("served answer for %s differs from the direct estimator call (err=%v)", path, err)
		}
	}
}

// windowSlices is how many consecutive slices a serving window is cut
// into. Every end-to-end metric is computed per slice and reported as the
// median over the slices, so a stall of this shared VM — a 100 ms freeze
// puts 1% of an open loop's requests behind it, a burst of stolen CPU
// halves a second's throughput — moves one slice and not the run.
const windowSlices = 5

// slice is one part of a window: a serving window's k-th fifth, or one
// build of index_build.
type slice struct {
	phase
	ops int             // successful operations completed in the slice: requests, or index rows
	lat []time.Duration // their latencies, ascending
}

// window is one measured window: what the client saw, slice by slice, and
// the machine, runtime and serving-tier counter deltas around the whole.
type window struct {
	load     loadResult
	slices   []slice
	whole    phase
	ops      int      // successful operations: requests, or index rows
	smp      *sampler // answers kept for the check after the window; nil for builds
	next     int      // the stream index after the window's last request
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	srv0     []server.Stats
	srv1     []server.Stats
	hitRatio float64
}

// voidSlices counts the slices the machine was taken away from.
func (w *window) voidSlices() int {
	n := 0
	for _, s := range w.slices {
		if s.void() {
			n++
		}
	}
	return n
}

// void reports a window whose median slice is a disturbed one.
func (w *window) void() bool { return 2*w.voidSlices() > len(w.slices) }

func (e *env) serverStats() []server.Stats {
	if e.live == nil {
		return nil
	}
	out := make([]server.Stats, len(e.live.shards))
	for i, s := range e.live.shards {
		out[i] = s.srv.StatsSnapshot()
	}
	return out
}

// cacheDelta sums cache hits and lookups over all shards between two
// snapshots.
func cacheDelta(a, b []server.Stats) (hits, lookups uint64) {
	for i := range a {
		if a[i].Cache == nil || b[i].Cache == nil {
			continue
		}
		h := b[i].Cache.Hits - a[i].Cache.Hits
		hits += h
		lookups += h + b[i].Cache.Misses - a[i].Cache.Misses
	}
	return hits, lookups
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// observe runs load between two readings of the runtime's and the serving
// tier's counters. load returns what the client saw and the machine states
// at its slice boundaries, first and last included.
func (e *env) observe(load func() (loadResult, []machineState, error)) (window, error) {
	var w window
	w.srv0 = e.serverStats()
	runtime.ReadMemStats(&w.mem0)
	var marks []machineState
	var err error
	if w.load, marks, err = load(); err != nil {
		return w, err
	}
	runtime.ReadMemStats(&w.mem1)
	w.srv1 = e.serverStats()
	hits, lookups := cacheDelta(w.srv0, w.srv1)
	w.hitRatio = ratio(float64(hits), float64(lookups))
	w.whole = marks[0].until(marks[len(marks)-1])
	for k := 1; k < len(marks); k++ {
		w.slices = append(w.slices, slice{phase: marks[k-1].until(marks[k])})
	}
	return w, nil
}

// sliced runs load while reading the machine's state at every boundary of
// windowSlices equal slices of the window, and deals the successful
// operations to the slices they completed in.
func (e *env) sliced(clock *refClock, dur time.Duration, load func() (loadResult, error)) (window, error) {
	w, err := e.observe(func() (loadResult, []machineState, error) {
		marks := []machineState{clock.state()}
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			tick := time.NewTicker(dur / windowSlices)
			defer tick.Stop()
			for len(marks) < windowSlices {
				select {
				case <-tick.C:
					marks = append(marks, clock.state())
				case <-stop:
					return
				}
			}
		}()
		res, err := load()
		close(stop)
		<-stopped
		return res, append(marks, clock.state()), err
	})
	if err != nil {
		return w, err
	}
	last := len(w.slices) - 1
	for i, at := range w.load.done {
		k := 0
		for k < last && at.After(w.slices[k].end) {
			k++
		}
		w.slices[k].lat = append(w.slices[k].lat, w.load.lat[i])
	}
	for k := range w.slices {
		slices.Sort(w.slices[k].lat)
		w.slices[k].ops = len(w.slices[k].lat)
	}
	w.ops = len(w.load.lat)
	return w, nil
}

// measure drives the live tier for one window, from stream index first:
// a closed loop of `clients` clients, or — open — Poisson arrivals at the
// frozen rate over as many connections.
func (e *env) measure(hc *http.Client, clock *refClock, st stream, first int, seed uint64, seconds float64, sz sizes, open bool) (window, error) {
	smp := &sampler{}
	issue := func(idx int) error {
		r := st(idx)
		a, err := overHTTP(hc, e.live.front.url(), r, "")
		if err == nil {
			smp.offer(idx, r, a)
		}
		return err
	}
	dur := time.Duration(seconds * float64(time.Second))
	w, err := e.sliced(clock, dur, func() (loadResult, error) {
		if open {
			return runOpen(clients, first, poissonSchedule(seed, sz.zipfRate, dur), issue)
		}
		return runClosed(clients, first, math.MaxInt, dur, issue), nil
	})
	w.smp = smp
	return w, err
}

// quietest measures one window and, when the machine was taken away from
// most of it (see window.void), one more — try 1 — and keeps the one with
// fewer disturbed slices. The other window's operations still count as
// attempted, and its failures as failed. Every workload shares this one
// retry.
func quietest(res *runResult, sz sizes, measure func(try int) (window, error)) (window, error) {
	win, err := measure(0)
	if err != nil || !sz.strict || !win.void() {
		return win, err
	}
	again, err := measure(1)
	if err != nil {
		return win, err
	}
	res.note("window measured twice: first %v; second %v", win.whole.dist, again.whole.dist)
	if again.voidSlices() < win.voidSlices() {
		win, again = again, win
	}
	res.Attempted += again.load.attempted
	res.Failed += again.load.failed
	if again.load.firstErr != nil {
		res.problem("%d operations of the discarded window failed, first: %v", again.load.failed, again.load.firstErr)
	}
	if win.void() {
		warn("%s: both windows are void; kept: %v", res.Workload, win.whole.dist)
	}
	return win, nil
}

// sliceMedians gives, per window metric, the median over the slices (that
// had any successful operation) of what the slice read: as a stopwatch
// read it, or nominal — each slice's times divided, and its rate
// multiplied, by the slice's slowdown. A build is one latency sample, not
// a population, so index_build's p95_ms is taken over its slices instead
// of inside them.
func sliceMedians(w *window, nominal, batch bool) map[string]float64 {
	per := map[string][]float64{}
	var builds []time.Duration
	for _, s := range w.slices {
		if s.ops == 0 {
			continue
		}
		f := 1.0
		if nominal {
			f = s.slow
		}
		per["ops_s"] = append(per["ops_s"], float64(s.ops)/s.elapsed.Seconds()*f)
		per["p50_ms"] = append(per["p50_ms"], percentile(s.lat, 0.50).Seconds()*1e3/f)
		per["p95_ms"] = append(per["p95_ms"], percentile(s.lat, 0.95).Seconds()*1e3/f)
		per["cpu_ms_per_op"] = append(per["cpu_ms_per_op"], s.cpu.Seconds()*1e3/float64(s.ops)/f)
		builds = append(builds, time.Duration(float64(s.lat[0])/f))
	}
	out := map[string]float64{}
	for name, v := range per {
		out[name] = median(v)
	}
	if batch {
		slices.Sort(builds)
		out["p95_ms"] = percentile(builds, 0.95).Seconds() * 1e3
	}
	return out
}

// endToEnd derives the user-visible metrics of one window at nominal
// machine speed, and keeps the figures as measured beside them.
func endToEnd(res *runResult, w *window, batch bool) {
	for name, v := range sliceMedians(w, true, batch) {
		res.Values[name] = v
	}
	raw := sliceMedians(w, false, batch)
	res.note("machine slowdown %.3f over the window (%d of %d slices void), %v; as measured: ops_s %.6g, p50_ms %.6g, p95_ms %.6g, cpu_ms_per_op %.6g",
		w.whole.slow, w.voidSlices(), len(w.slices), w.whole.dist, raw["ops_s"], raw["p50_ms"], raw["p95_ms"], raw["cpu_ms_per_op"])
	raw["slowdown"] = w.whole.slow
	res.AsMeasured = raw
}

// p99ms is the nearest-rank 99th percentile in milliseconds. It is a
// per-layer figure, not a bounded end-to-end one: in ten seconds of open
// loop a single 100 ms stall of this shared VM lands on 1.5% of the
// requests, and the p99 then reads the stall, not the system.
func p99ms(lat []time.Duration) float64 {
	return percentile(slices.Sorted(slices.Values(lat)), 0.99).Seconds() * 1e3
}

// assertWindow counts the kept window's operations and applies the
// workload's validity conditions that do not depend on timing: failures,
// and the cache regime the workload exists to exercise.
func (e *env) assertWindow(w *window, res *runResult, sz sizes) {
	res.Attempted += w.load.attempted
	res.Failed += w.load.failed
	if w.load.firstErr != nil {
		res.problem("%d of %d operations failed, first: %v", w.load.failed, w.load.attempted, w.load.firstErr)
	}
	if !sz.strict || e.live == nil {
		return
	}
	if e.w.zipf {
		if w.hitRatio < 0.6 || w.hitRatio > 0.9 {
			res.problem("%s cache hit ratio %.3f outside [0.6, 0.9]", e.w.name, w.hitRatio)
		}
	} else if w.hitRatio > 0.01 {
		res.problem("%s cache hit ratio %.4f > 0.01: the workload is not cold", e.w.name, w.hitRatio)
	}
	if e.live.router != nil {
		rs := e.live.router.StatsSnapshot()
		if rs.Failovers+rs.GenRetries+rs.ShardErrors != 0 {
			res.problem("fleet not healthy: failovers=%d gen_retries=%d shard_errors=%d", rs.Failovers, rs.GenRetries, rs.ShardErrors)
		}
	}
}

// runOne performs one run of one workload and returns its metrics.
func runOne(w workload, seed uint64, seconds float64, trace bool, sz sizes) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: seed, Trace: trace, Values: map[string]float64{}}
	clock := startRefClock()
	defer clock.close()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	e, setupS, err := setupRepeated(hc, clock, w, sz, trace)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	defer e.close()
	var win window
	if w.batch {
		win, err = runBuild(clock, e, res, seconds, sz)
	} else {
		win, err = runServing(hc, clock, e, res, seed, seconds, sz, &setupS)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	e.assertWindow(&win, res, sz)
	if win.smp != nil {
		win.smp.verify(e, res)
	}
	if win.ops == 0 {
		return nil, fmt.Errorf("%s: no operation succeeded: %v", w.name, win.load.firstErr)
	}
	if !trace {
		res.Values["setup_s"] = setupS
		endToEnd(res, &win, w.batch)
	} else {
		for name, v := range e.layer {
			res.Values[name] = v
		}
		e.windowLayers(&win, res)
		st := w.stream(seed, e.g)
		if w.zipf {
			if err := e.openLoopLayers(hc, clock, st, win.next, seed, seconds, sz, res); err != nil {
				return nil, fmt.Errorf("%s: open loop: %w", w.name, err)
			}
		}
		if w.batch {
			err = traceBuild(e, res, sz)
		} else {
			err = e.traceServing(hc, st, res, sz)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: traced replay: %w", w.name, err)
		}
	}
	if res.MaxAbsErr, err = sideAccuracy(w, sz); err != nil {
		return nil, fmt.Errorf("%s: accuracy check: %w", w.name, err)
	}
	if ceil := accuracyCeiling[w.name]; sz.strict && res.MaxAbsErr > ceil {
		res.problem("max_abs_err %.3g against internal/exact exceeds the ceiling %.3g", res.MaxAbsErr, ceil)
	}
	if trace {
		res.Values["check.max_abs_err"] = res.MaxAbsErr
		res.Values["check.fail_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	}
	res.Correct = len(res.Problems) == 0 && res.Failed == 0
	return res, nil
}

// setupRepeated sets the workload up reps times and keeps the last; the
// reported set-up time is the median (each at nominal machine speed), so
// one slow page-fault storm or GC cycle does not decide it.
func setupRepeated(hc *http.Client, clock *refClock, w workload, sz sizes, trace bool) (*env, float64, error) {
	reps := sz.setupReps
	if trace {
		reps = 1 // set-up time is an end-to-end metric; the traced run reports its stages instead
	}
	var times []float64
	for rep := 0; ; rep++ {
		m0 := clock.state()
		e, err := setup(hc, w, sz, trace)
		if err != nil {
			return nil, 0, err
		}
		took := m0.until(clock.state())
		times = append(times, took.elapsed.Seconds()/took.slow)
		if rep == reps-1 {
			return e, median(times), nil
		}
		e.close()
		e = nil
		runtime.GC()
	}
}

// runServing warms the live tier up and measures the workload's window
// against it. The warm-up's time is added to *setupS.
func runServing(hc *http.Client, clock *refClock, e *env, res *runResult, seed uint64, seconds float64, sz sizes, setupS *float64) (window, error) {
	st := e.w.stream(seed, e.g)

	// Warm-up: a fixed prefix of the stream, closed loop. It fills the
	// connection pool and the estimators' scratch pools, and on zipf_mix
	// the LRU; the window continues the stream where it ends. Its time is
	// part of set-up.
	next := e.w.warmup(sz)
	m0 := clock.state()
	err := runClosed(clients, 0, next, time.Hour, func(idx int) error {
		_, err := overHTTP(hc, e.live.front.url(), st(idx), "")
		return err
	}).firstErr
	if err != nil {
		return window{}, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	warmed := m0.until(clock.state())
	*setupS += warmed.elapsed.Seconds() / warmed.slow

	return quietest(res, sz, func(try int) (window, error) {
		// A second window continues down the stream, on a schedule of its own.
		w, err := e.measure(hc, clock, st, next, seed+uint64(try)<<32, seconds, sz, false)
		next += w.load.attempted
		w.next = next
		return w, err
	})
}

// windowLayers reports the counters taken at the window's boundaries, and
// the window's end-to-end figures as measured (raw.*): the per-layer view
// of what the bounded metrics read before normalisation.
func (e *env) windowLayers(w *window, res *runResult) {
	v := res.Values
	for name, val := range sliceMedians(w, false, e.w.batch) {
		v["raw."+name] = val
	}
	v["machine.slowdown"] = w.whole.slow
	v["machine.steal_ratio"] = w.whole.dist.steal
	v["machine.frozen_ms"] = w.whole.dist.frozen.Seconds() * 1e3
	v["runtime.gc_pause_ms"] = float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs) / 1e6
	v["runtime.heap_inuse_mb"] = float64(w.mem1.HeapInuse) / (1 << 20)
	v["runtime.mallocs_per_op"] = ratio(float64(w.mem1.Mallocs-w.mem0.Mallocs), float64(w.ops))
	v["loadgen.sent"] = float64(w.load.attempted)
	v["loadgen.p99_ms"] = p99ms(w.load.lat)
	if e.live == nil {
		return
	}
	v["server.cache_hit_ratio"] = w.hitRatio
	var coalesced, shed, shardReqs float64
	for i := range w.srv0 {
		coalesced += float64(w.srv1[i].Coalesced - w.srv0[i].Coalesced)
		shed += float64(w.srv1[i].Shed - w.srv0[i].Shed)
		for path, ep := range w.srv1[i].Endpoints {
			shardReqs += float64(ep.Count - w.srv0[i].Endpoints[path].Count)
		}
	}
	v["server.coalesced_ratio"] = ratio(coalesced, shardReqs)
	v["server.shed_ratio"] = ratio(shed, shardReqs+shed)
	if e.live.router != nil {
		rs := e.live.router.StatsSnapshot()
		v["fleet.failovers"] = float64(rs.Failovers)
		v["fleet.gen_retries"] = float64(rs.GenRetries)
		v["fleet.shard_errors"] = float64(rs.ShardErrors)
		v["fleet.shard_fanout"] = ratio(shardReqs, float64(w.load.attempted))
	}
}

// openLoopLayers drives the Zipf mix once more as an OPEN loop — Poisson
// arrivals at the frozen rate, latency timed from the due instant — from
// stream index first, and reports what it read per layer (open.*,
// loadgen.late_p99_ms). These are the figures a user of a mostly idle
// server sees, and they are not bounded end-to-end metrics because on the
// shared reference VM they cannot be: an idle vCPU is taken off its core,
// and what waking it and refilling its caches costs changes with the
// neighbours (ten runs read a p95 of 3.0–5.6 ms, a spread of 19–44%).
func (e *env) openLoopLayers(hc *http.Client, clock *refClock, st stream, first int, seed uint64, seconds float64, sz sizes, res *runResult) error {
	w, err := e.measure(hc, clock, st, first, seed, seconds, sz, true)
	if err != nil {
		return err
	}
	res.Attempted += w.load.attempted
	res.Failed += w.load.failed
	if w.load.firstErr != nil {
		res.problem("%d of %d open-loop requests failed, first: %v", w.load.failed, w.load.attempted, w.load.firstErr)
	}
	w.smp.verify(e, res)
	if w.ops == 0 {
		return fmt.Errorf("no request succeeded: %v", w.load.firstErr)
	}
	v := res.Values
	for name, val := range sliceMedians(&w, false, false) {
		v["open."+name] = val
	}
	v["open.p99_ms"] = p99ms(w.load.lat)
	v["open.cache_hit_ratio"] = w.hitRatio
	if len(w.load.late) > 0 {
		slices.Sort(w.load.late)
		late := percentile(w.load.late, 0.99)
		v["loadgen.late_p99_ms"] = late.Seconds() * 1e3
		if late > time.Millisecond {
			warn("%s: open-loop generator fired %.2f ms late at p99 (> 1 ms)", e.w.name, late.Seconds()*1e3)
		}
	}
	if float64(w.load.backlog) > 0.01*float64(w.load.attempted) {
		warn("%s: backlog: %d of %d requests were sent more than %v after they were due", e.w.name, w.load.backlog, w.load.attempted, lateStart)
	}
	return nil
}

// runBuild is index_build's window: core.BuildIndex back to back for the
// given time. One operation is one index row, and every build is a slice
// of the window and one latency sample. Every build must produce the same
// diagonal, every entry a number in [0,1].
func runBuild(clock *refClock, e *env, res *runResult, seconds float64, sz sizes) (window, error) {
	rows := e.g.NumNodes()
	var first *core.Index
	return quietest(res, sz, func(int) (window, error) {
		runtime.GC()
		var good []bool // per build: it passed its checks
		w, err := e.observe(func() (loadResult, []machineState, error) {
			var load loadResult
			marks := []machineState{clock.state()}
			for marks[len(marks)-1].at.Sub(marks[0].at).Seconds() < seconds {
				ix, _, err := core.BuildIndex(e.g, indexOpts)
				if err != nil {
					return load, marks, err
				}
				marks = append(marks, clock.state())
				load.attempted += rows
				switch {
				case first == nil:
					first = ix
					for _, d := range ix.Diag {
						if !(d >= 0 && d <= 1) {
							err = fmt.Errorf("index diagonal entry %v outside [0,1]", d)
							break
						}
					}
				case !slices.Equal(ix.Diag, first.Diag):
					err = fmt.Errorf("a build produced a different diagonal than the first")
				}
				good = append(good, err == nil)
				if err != nil {
					load.failed += rows
					if load.firstErr == nil {
						load.firstErr = err
					}
				}
			}
			load.elapsed = marks[len(marks)-1].at.Sub(marks[0].at)
			return load, marks, nil
		})
		if err != nil {
			return w, err
		}
		for k := range w.slices {
			if good[k] {
				s := &w.slices[k]
				s.ops, s.lat = rows, []time.Duration{s.elapsed}
				w.load.lat = append(w.load.lat, s.elapsed)
				w.ops += rows
			}
		}
		return w, nil
	})
}
