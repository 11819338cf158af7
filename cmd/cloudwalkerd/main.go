// Command cloudwalkerd is the CloudWalker query daemon: it loads a graph
// and its offline index, and serves online SimRank queries over HTTP/JSON
// with result caching, request coalescing, and load shedding.
//
// Usage:
//
//	cloudwalker gen   -out graph.bin -kind rmat -n 10000 -m 120000
//	cloudwalker index -graph graph.bin -out index.cw
//	cloudwalkerd -graph graph.bin -index index.cw [-addr :8089]
//	cloudwalkerd -graph graph.bin -index index.cw -dynamic -refresh-after 1000
//	cloudwalkerd -graph graph.bin -index index.cw -lin
//
// Endpoints: /pair, /pairs, /source, /healthz, /stats, /metrics
// (Prometheus text format; see internal/server); with -dynamic also POST
// /edges (incremental edge updates) and POST /refresh (compaction +
// hot-swap to a fresh snapshot); with -snapshot also POST /snapshot
// (persist the serving state — a restart restores it and skips
// re-walking). SIGINT/SIGTERM drain in-flight requests before exit.
//
// Each request names its own answer: backend=mc (the paper's Monte Carlo
// estimator, and what an absent backend means) or backend=lin (the
// linearized truncated series, evaluated deterministically against a
// precomputed diagonal), and for pair queries epsilon=/delta= for
// adaptive sampling. The daemon has no flag that changes what a request
// means: -lin only builds the linearized engine at startup (a snapshot
// that carries one restores it instead), so ?backend=lin can be served.
//
// The same binary also runs a serving fleet (see internal/fleet): start N
// shard daemons (optionally named with -shard), then a router frontend
// that consistent-hashes every query to the one shard that owns it and
// fails over when a shard dies:
//
//	cloudwalkerd -graph g.bin -index i.cw -shard a -addr :8091 &
//	cloudwalkerd -graph g.bin -index i.cw -shard b -addr :8092 &
//	cloudwalkerd -router -shards localhost:8091,localhost:8092 -addr :8089
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"cloudwalker"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "cloudwalkerd:", err)
		os.Exit(1)
	}
}

// run is main minus process concerns. If ready is non-nil it receives the
// bound address once the listener is up (tests use it to aim requests at
// an ephemeral port).
func run(args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("cloudwalkerd", flag.ContinueOnError)
	gpath := fs.String("graph", "", "graph file (.txt/.el for text, else binary)")
	ipath := fs.String("index", "", "index file from 'cloudwalker index'")
	addr := fs.String("addr", ":8089", "listen address")
	cacheSize := fs.Int("cache", 0, "result cache entries (0 = default, -1 = disabled)")
	cacheShards := fs.Int("cache-shards", 0, "result cache shards (0 = default)")
	maxInFlight := fs.Int("max-inflight", 0, "max concurrent queries before shedding 429s (0 = 4x cores, -1 = unlimited)")
	maxBatch := fs.Int("max-batch", 0, "max pairs per /pairs request (0 = default)")
	dynamic := fs.Bool("dynamic", false, "accept incremental edge updates (POST /edges) with background compaction + hot-swap (POST /refresh)")
	refreshAfter := fs.Int("refresh-after", 0, "auto-compact after this many pending updates (0 = manual refresh only; needs -dynamic)")
	snapDir := fs.String("snapshot", "", "snapshot directory: POST /snapshot persists the serving state here, and a snapshot found here at startup is restored instead of -graph/-index (resumes the saved generation, skips re-walking)")
	linOn := fs.Bool("lin", false, "build the linearized engine at startup so clients can request ?backend=lin (a snapshot that carries one restores it instead)")
	linSweeps := fs.Int("lin-sweeps", 0, "Jacobi sweeps for the linearized diagonal solve (0 = default)")
	linPrune := fs.Float64("lin-prune", -1, "pruning threshold for linearized build and queries (-1 = serving defaults, 0 = exact)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ for production profiling")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
	router := fs.Bool("router", false, "run as a fleet router over -shards instead of serving a graph")
	shards := fs.String("shards", "", "comma-separated shard addresses for -router (host:port,...)")
	shardName := fs.String("shard", "", "shard name stamped on responses (X-Cloudwalker-Shard) when serving behind a fleet router")
	hedgeFlag := fs.String("hedge", "off", "router request hedging: off, auto (delay = observed p99), or a fixed delay like 50ms (GETs: /pair and /source)")
	retryBudget := fs.Float64("retry-budget", 0, "router retry-budget token bucket size (0 = default 10, negative = unlimited retries)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive shard failures that open its circuit breaker (0 = default 5, negative = breakers off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *router {
		if *gpath != "" || *ipath != "" || *dynamic || *shardName != "" || *snapDir != "" {
			return fmt.Errorf("-router takes -shards, not -graph/-index/-dynamic/-shard/-snapshot")
		}
		hedge, err := parseHedge(*hedgeFlag)
		if err != nil {
			return err
		}
		return runRouter(routerConfig{
			shards:           *shards,
			addr:             *addr,
			drain:            *drain,
			hedge:            hedge,
			retryBudget:      *retryBudget,
			breakerThreshold: *breakerThreshold,
		}, out, ready)
	}
	if *refreshAfter != 0 && !*dynamic {
		return fmt.Errorf("-refresh-after requires -dynamic")
	}

	// A persisted snapshot beats the artifact files: it IS the state the
	// daemon was serving when it saved (post-compaction graph, rebuilt
	// index, generation), so a restart resumes bit-identical answers
	// without re-running BuildIndex. Missing file = cold start from
	// -graph/-index; corrupted file = hard error (the operator decides
	// whether to delete it, the daemon must not silently serve older data).
	var (
		g        *cloudwalker.Graph
		idx      *cloudwalker.Index
		lin      *cloudwalker.LinEngine
		gen      uint64
		restored bool
	)
	if *snapDir != "" {
		ps, err := cloudwalker.ReadServingSnapshot(*snapDir)
		switch {
		case err == nil:
			g, idx, lin, gen, restored = ps.Graph, ps.Index, ps.Lin, ps.Gen, true
			extra := ""
			if lin != nil {
				extra = ", with linearized engine"
			}
			fmt.Fprintf(out, "restored snapshot gen %d from %s (no re-walk%s)\n",
				gen, cloudwalker.ServingSnapshotPath(*snapDir), extra)
		case errors.Is(err, os.ErrNotExist):
			// cold start below
		default:
			return fmt.Errorf("loading snapshot: %w", err)
		}
	}
	if !restored {
		if *gpath == "" || *ipath == "" {
			return fmt.Errorf("-graph and -index are required (or -snapshot with a saved snapshot)")
		}
		var err error
		g, err = cloudwalker.LoadGraphFile(*gpath)
		if err != nil {
			return err
		}
		f, err := os.Open(*ipath)
		if err != nil {
			return err
		}
		idx, err = cloudwalker.LoadIndex(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	q, err := cloudwalker.NewQuerier(g, idx)
	if err != nil {
		return err
	}
	// The linearized engine is startup-time prep like the index load: a
	// restored snapshot's engine wins (it is the state that was serving),
	// otherwise -lin builds one here. Decay and series
	// depth come from the index so the two backends answer the same
	// truncation of the same similarity.
	lopts := cloudwalker.DefaultLinOptions()
	lopts.C = idx.Opts.C
	lopts.T = idx.Opts.T
	lopts.Workers = runtime.GOMAXPROCS(0)
	if *linSweeps > 0 {
		lopts.Sweeps = *linSweeps
	}
	if *linPrune >= 0 {
		lopts.BuildPruneEps, lopts.PruneEps = *linPrune, *linPrune
	} else {
		// Serving defaults: prune the build harder than DefaultLinOptions'
		// exact expansion so startup stays in seconds on dense-tailed
		// graphs, and keep query frontiers sparse at invisible error.
		lopts.BuildPruneEps, lopts.PruneEps = 1e-6, 1e-4
	}
	if lin == nil && *linOn {
		t0 := time.Now()
		lin, err = cloudwalker.BuildLinEngine(g, lopts)
		if err != nil {
			return fmt.Errorf("building linearized engine: %w", err)
		}
		fmt.Fprintf(out, "linearized engine ready in %v (T=%d sweeps=%d)\n",
			time.Since(t0).Round(time.Millisecond), lopts.T, lopts.Sweeps)
	}
	cfg := cloudwalker.ServerConfig{
		CacheSize:   *cacheSize,
		CacheShards: *cacheShards,
		MaxInFlight: *maxInFlight,
		MaxBatch:    *maxBatch,
		EnablePprof: *pprofOn,
		ShardName:   *shardName,
		SnapshotDir: *snapDir,
		InitialGen:  gen,
		Lin:         lin,
	}
	if lin != nil {
		fmt.Fprintln(out, "linearized engine available (?backend=lin)")
	}
	if *pprofOn {
		fmt.Fprintln(out, "pprof enabled at /debug/pprof/")
	}
	if *dynamic {
		// Every hot-swap rebuilds the index on the compacted snapshot
		// with the same options the loaded index was built with. Edits
		// count generations on from InitialGen, so a restored daemon's
		// cache keys and the fleet's generation floor stay monotonic
		// across the restart.
		cfg.Dynamic = true
		cfg.RefreshAfter = *refreshAfter
		if lin != nil {
			// A hot-swap drops the lin engine (solved for the old graph);
			// re-solve it in the background with the options of the engine
			// that was serving (a restored one's, not the flags'), so lin
			// serving recovers at the same precision without blocking the
			// swap.
			ropts := lin.Options()
			ropts.Workers = runtime.GOMAXPROCS(0)
			cfg.RebuildLin = func(nq *cloudwalker.Querier) (*cloudwalker.LinEngine, error) {
				return cloudwalker.BuildLinEngine(nq.Graph(), ropts)
			}
		}
		fmt.Fprintf(out, "dynamic updates enabled (POST /edges, POST /refresh, refresh-after=%d)\n", *refreshAfter)
	}
	srv, err := cloudwalker.NewServer(q, cfg)
	if err != nil {
		return err
	}

	banner := fmt.Sprintf("serving %d nodes / %d edges", g.NumNodes(), g.NumEdges())
	if *shardName != "" {
		banner = fmt.Sprintf("shard %q %s", *shardName, banner)
	}
	return serveHTTP(srv.Handler(), *addr, *drain, out, ready, banner, func(w io.Writer) {
		st := srv.StatsSnapshot()
		fmt.Fprintf(w, "drained; served %d computations, shed %d\n", st.Computations, st.Shed)
	})
}

// parseHedge maps the -hedge flag to fleet.Config.HedgeDelay: "off" (or
// empty) disables, "auto" derives the delay from the observed p99, and
// anything else must be a positive Go duration.
func parseHedge(s string) (time.Duration, error) {
	switch s {
	case "", "off":
		return 0, nil
	case "auto":
		return -1, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("-hedge: want off, auto, or a positive duration, got %q", s)
	}
	return d, nil
}

// routerConfig carries the -router flags to runRouter.
type routerConfig struct {
	shards           string
	addr             string
	drain            time.Duration
	hedge            time.Duration
	retryBudget      float64
	breakerThreshold int
}

// runRouter runs the fleet-router mode: no graph, no index — just the
// frontend that routes and fails over across shard daemons.
func runRouter(rc routerConfig, out io.Writer, ready chan<- string) error {
	if rc.shards == "" {
		return fmt.Errorf("-router requires -shards host:port[,host:port,...]")
	}
	rt, err := cloudwalker.NewFleetRouter(cloudwalker.FleetConfig{
		Shards:           strings.Split(rc.shards, ","),
		HedgeDelay:       rc.hedge,
		RetryBudget:      rc.retryBudget,
		BreakerThreshold: rc.breakerThreshold,
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	banner := fmt.Sprintf("fleet router (%d shards) serving", len(strings.Split(rc.shards, ",")))
	return serveHTTP(rt.Handler(), rc.addr, rc.drain, out, ready, banner, func(w io.Writer) {
		st := rt.StatsSnapshot()
		fmt.Fprintf(w, "drained; routed %d requests, %d failovers\n", st.Requests, st.Failovers)
	})
}

// serveHTTP binds addr, announces "<banner> on http://ADDR", and serves
// handler until SIGINT/SIGTERM, then drains. Shard and router modes share
// it, so both announce addresses the e2e harness can parse the same way.
func serveHTTP(handler http.Handler, addr string, drain time.Duration, out io.Writer, ready chan<- string, banner string, drained func(io.Writer)) error {
	// Arm signal handling before the listener goes up so a SIGTERM that
	// races startup still drains instead of killing the process.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s on http://%s\n", banner, ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	hs := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case sig := <-sigc:
		fmt.Fprintf(out, "received %v, draining (up to %v)\n", sig, drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		drained(out)
		return nil
	}
}
