package main

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"cloudwalker/internal/core"
	"cloudwalker/internal/fleet"
	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/linserve"
	"cloudwalker/internal/linsys"
	"cloudwalker/internal/server"
)

// sizes scales every workload. Full sizes are what BENCHMARK.json's
// numbers mean; smoke sizes exist so `go test` can run every workload and
// emit every metric in seconds.
type sizes struct {
	bigN, bigM     int // pair_cold, source_cold, zipf_mix, fleet_scatter
	linN, linM     int // lin_cold
	buildN, buildM int // index_build
	sideN, sideM   int // accuracy side graph
	sidePairs      int // pairs checked against exact on the side graph
	sideSources    int // sources checked against exact on the side graph
	setupReps      int // set-ups per run; setup_s is their median
	coldWarmup     int // warm-up requests of a cold workload
	zipfWarmup     int // warm-up requests of zipf_mix (fills the LRU)
	zipfRate       float64
	tracePairs     int  // traced prefix of pair-dominated workloads
	traceSources   int  // traced prefix of source-dominated workloads
	rowSample      int  // rows timed for walk.row_ns_per_step
	strict         bool // full sizes: apply the validity conditions (cache regime, accuracy ceiling, stolen CPU)
}

// zipfRate, the open loop's arrival rate, is frozen at about a fifth of
// the closed-loop capacity of the Zipf mix on the 2-core reference box (see
// README, calibration).
var fullSizes = sizes{
	bigN: 100_000, bigM: 1_000_000,
	linN: 4_000, linM: 32_000,
	buildN: 200_000, buildM: 2_000_000,
	sideN: 400, sideM: 3_200, sidePairs: 256, sideSources: 16,
	setupReps:  3,
	coldWarmup: 500, zipfWarmup: 6000, zipfRate: 1000,
	tracePairs: 1000, traceSources: 300, rowSample: 4000,
	strict: true,
}

// smokeSeconds is a smoke run's window, whatever -seconds says.
const smokeSeconds = 0.1

var smokeSizes = sizes{
	bigN: 2_000, bigM: 16_000,
	linN: 1_000, linM: 6_000,
	buildN: 2_000, buildM: 16_000,
	sideN: 200, sideM: 1_200, sidePairs: 32, sideSources: 4,
	setupReps:  1,
	coldWarmup: 20, zipfWarmup: 200, zipfRate: 500,
	tracePairs: 100, traceSources: 100, rowSample: 200,
}

// Graph seeds are constants: -seed drives request streams and arrival
// schedules only, so every run of a workload serves the same graph.
const (
	bigGraphSeed   = 1001
	linGraphSeed   = 1002
	buildGraphSeed = 1003
	sideGraphSeed  = 1004
)

var indexOpts = core.Options{C: 0.6, T: 10, L: 3, R: 50, RPrime: 1000, Workers: 2, Seed: 7}

var linOpts = linserve.Options{C: 0.6, T: 10, Sweeps: 5, Workers: 2, BuildPruneEps: 1e-6, PruneEps: 1e-4}

const fleetShards = 3

// workload is the static description of one BENCHMARK.json workload.
type workload struct {
	name       string
	graphSeed  uint64
	batch      bool // index_build: no serving tier
	lin        bool // answered by the linearized engine
	fleet      bool // served through a router over fleetShards shards
	zipf       bool // zipf_mix: the Zipf-keyed request mix over a warm LRU; its traced run adds the open loop
	period     int  // cold mixes: of every period requests the last `sources` are /source
	sources    int
	sourceLike bool // traced prefix sized for millisecond requests
}

var workloads = []workload{
	{name: "pair_cold", graphSeed: bigGraphSeed, period: 1, sources: 0},
	{name: "source_cold", graphSeed: bigGraphSeed, period: 1, sources: 1, sourceLike: true},
	{name: "zipf_mix", graphSeed: bigGraphSeed, zipf: true},
	{name: "fleet_scatter", graphSeed: bigGraphSeed, fleet: true, period: 2, sources: 1, sourceLike: true},
	{name: "lin_cold", graphSeed: linGraphSeed, lin: true, period: 10, sources: 3},
	{name: "index_build", graphSeed: buildGraphSeed, batch: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) graphSize(sz sizes) (n, m int) {
	switch {
	case w.batch:
		return sz.buildN, sz.buildM
	case w.lin:
		return sz.linN, sz.linM
	default:
		return sz.bigN, sz.bigM
	}
}

// stream is the workload's request stream over g. The Monte Carlo
// workloads draw from every node. lin_cold draws only from nodes that have
// in-links: the linearized engine answers a query touching any other node
// in nanoseconds (its frontier is empty), and with a third of all nodes
// like that the median request would time net/http instead of linserve.
func (w workload) stream(seed uint64, g *graph.Graph) stream {
	n := g.NumNodes()
	if w.zipf {
		return zipfStream(seed, n, newZipf(zipfKeys, zipfS))
	}
	nodes := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if !w.lin || g.InDegree(v) > 0 {
			nodes = append(nodes, v)
		}
	}
	return mixedColdStream(seed, nodes, w.period, w.sources, w.lin)
}

func (w workload) warmup(sz sizes) int {
	if w.zipf {
		return sz.zipfWarmup
	}
	return sz.coldWarmup
}

func (w workload) tracePrefix(sz sizes) int {
	if w.sourceLike {
		return sz.traceSources
	}
	return sz.tracePairs
}

// endpoint is one HTTP server on its own loopback TCP listener.
type endpoint struct {
	srv  *server.Server // nil for the router
	hs   *http.Server
	addr string // host:port
}

func (e *endpoint) url() string { return "http://" + e.addr }

func listen(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	e := &endpoint{hs: &http.Server{Handler: h}, addr: ln.Addr().String()}
	go e.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed from close()
	return e, nil
}

// close drops the listener and every connection at once. No request is in
// flight when a tier is closed, and a graceful Shutdown waits five seconds
// for any connection a client dialled and never used.
func (e *endpoint) close() { e.hs.Close() }

// tier is one live serving tier: a server, or fleetShards shard servers
// behind a partitioned-mode router, each on its own listener.
type tier struct {
	shards []*endpoint
	router *fleet.Router // nil without a fleet
	front  *endpoint     // what clients talk to: the router, or shards[0]
}

func (t *tier) close() {
	if t.router != nil {
		t.front.close()
		t.router.Close()
	}
	for _, s := range t.shards {
		s.close()
	}
}

func (t *tier) addrs() []string {
	addrs := make([]string, len(t.shards))
	for i, s := range t.shards {
		addrs[i] = s.addr
	}
	return addrs
}

// env is everything one set-up builds: graph, index and engines, and the
// live serving tier the load is driven against.
type env struct {
	w     workload
	g     *graph.Graph
	q     *core.Querier
	lin   *linserve.Engine
	live  *tier
	layer map[string]float64 // set-up stage timings
}

func (e *env) close() {
	if e.live != nil {
		e.live.close()
	}
}

// newServer builds a fresh (cold-cache) server over the shared querier.
// Its configuration is the zero value but for what the workload needs:
// the lin engine, and shard names in a fleet.
func (e *env) newServer(shard string) (*server.Server, error) {
	return server.New(e.q, server.Config{Lin: e.lin, ShardName: shard})
}

// startTier starts shards fresh servers and, if routed, a router in front
// of them at its default configuration (hedging off, health prober at its
// default period), and waits until the front answers /healthz.
func (e *env) startTier(hc *http.Client, shards int, routed bool) (*tier, error) {
	t := &tier{}
	for i := 0; i < shards; i++ {
		name := ""
		if shards > 1 {
			name = fmt.Sprintf("shard%d", i)
		}
		srv, err := e.newServer(name)
		if err != nil {
			t.close()
			return nil, err
		}
		ep, err := listen(srv.Handler())
		if err != nil {
			t.close()
			return nil, err
		}
		ep.srv = srv
		t.shards = append(t.shards, ep)
	}
	t.front = t.shards[0]
	if routed {
		rt, err := fleet.New(fleet.Config{Shards: t.addrs(), Mode: fleet.Partitioned})
		if err != nil {
			t.close()
			return nil, err
		}
		ep, err := listen(rt.Handler())
		if err != nil {
			rt.Close()
			t.close()
			return nil, err
		}
		t.router, t.front = rt, ep
	}
	if err := waitHealthy(hc, t.front.url()); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func timed(dst map[string]float64, name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	dst[name] = time.Since(t0).Seconds()
	return err
}

// setup builds the workload's artifacts through the packages' public
// functions and starts its serving tier. With split set the index build
// runs as BuildSystem + SolveIndex so the two stages are timed apart (the
// traced run); otherwise as the one BuildIndex call users make.
func setup(hc *http.Client, w workload, sz sizes, split bool) (*env, error) {
	e := &env{w: w, layer: map[string]float64{}}
	n, m := w.graphSize(sz)
	err := timed(e.layer, "gen.rmat_s", func() (err error) {
		e.g, err = gen.RMAT(n, m, gen.DefaultRMAT, w.graphSeed)
		return err
	})
	if err != nil {
		return nil, err
	}
	_ = timed(e.layer, "graph.walkview_build_s", func() error { e.g.WalkView(); return nil })
	e.layer["graph.bytes_per_edge"] = float64(e.g.MemoryBytes()) / float64(e.g.NumEdges())
	if w.batch {
		return e, nil
	}
	var ix *core.Index
	if split {
		ix, err = splitBuild(e.g, e.layer)
	} else {
		ix, _, err = core.BuildIndex(e.g, indexOpts)
	}
	if err != nil {
		return nil, err
	}
	if e.q, err = core.NewQuerier(e.g, ix); err != nil {
		return nil, err
	}
	if w.lin {
		err = timed(e.layer, "linserve.build_s", func() (err error) {
			e.lin, err = linserve.Build(e.g, linOpts)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	shards := 1
	if w.fleet {
		shards = fleetShards
	}
	if e.live, err = e.startTier(hc, shards, w.fleet); err != nil {
		return nil, err
	}
	// The index build leaves hundreds of MB of dead system matrix behind;
	// collect it now so the measured window does not pay for it.
	runtime.GC()
	return e, nil
}

// splitBuild is core.BuildIndex taken apart at its one seam, timing the
// Monte Carlo row stage, the Jacobi solve, and one bare Jacobi run.
func splitBuild(g *graph.Graph, layer map[string]float64) (*core.Index, error) {
	t0 := time.Now()
	a, err := core.BuildSystem(g, indexOpts)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	ix, _, err := core.SolveIndex(g, a, indexOpts)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	sys, err := linsys.NewSystem(a, linsys.Ones(g.NumNodes()))
	if err != nil {
		return nil, err
	}
	if _, _, err := sys.Jacobi(indexOpts.L, indexOpts.Workers, nil); err != nil {
		return nil, err
	}
	layer["core.build_system_s"] = t1.Sub(t0).Seconds()
	layer["core.solve_index_s"] = t2.Sub(t1).Seconds()
	layer["linsys.jacobi_sweep_ms"] = time.Since(t2).Seconds() * 1e3 / float64(indexOpts.L)
	return ix, nil
}

// waitHealthy polls /healthz until the tier answers 200 (for a router:
// until its prober has seen the shards).
func waitHealthy(hc *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz never became healthy: %w", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
