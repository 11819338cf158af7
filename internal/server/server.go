// Package server is CloudWalker's online serving tier: an HTTP/JSON front
// end over core.Querier and, optionally, linserve.Engine. The paper's
// offline D-estimation exists precisely so online queries become cheap
// enough to serve interactively (MCSP cost is independent of graph size);
// this package supplies the remaining production plumbing — a
// sharded, cost-aware result cache, singleflight coalescing so a
// thundering herd on one hot query runs the Monte Carlo estimate once,
// and a bounded-concurrency admission gate that sheds overload with 429
// instead of queueing unboundedly.
//
// Endpoints:
//
//	GET  /pair?i=..&j=..                      single-pair SimRank (MCSP)
//	POST /pairs   {"pairs":[[i,j],...]}       batched MCSP
//	GET  /source?node=..&k=..                 single-source top-k (series)
//
// /pair additionally accepts epsilon= and delta= parameters (and /pairs
// the matching body fields) selecting the adaptive sampling path:
// walkers launch in waves and stop once the estimate's confidence
// half-width is below epsilon at confidence 1−delta (see
// core.SinglePairAdaptiveCtx). Absent or 0, epsilon means the fixed
// budget; an absent delta is 0.05. /source does not serve the paper's
// MCSS walk: it evaluates the linearized series over the index's diagonal
// with its frontiers pruned at 1e-3 (core.Querier.ServedSourceInto),
// which is deterministic, so epsilon > 0 and any mode= there are a 400.
//
// Every query endpoint additionally accepts a backend= parameter (and
// /pairs a "backend" body field) choosing the answering engine: mc (the
// Monte Carlo index, also what an absent backend means) or lin (the
// linearized truncated-series engine over a precomputed diagonal, when
// one is loaded). The effective backend is stamped on responses as
// X-Cloudwalker-Backend and counted in cloudwalker_backend_queries_total.
//
// A query request is parsed once into a plan, checked by one rule table,
// keyed, executed and encoded: see plan.go and execute.go. No server
// setting or index field enters a plan, so the same URL asks the same
// question of every server at the same generation. The effective backend
// and a pair's (epsilon, delta) are part of the cache and coalescing
// key, so answers that differ never alias.
//
//	POST /edges   {"insert":[[u,v],...],...}  incremental edge updates (dynamic mode)
//	POST /refresh[?wait=1]                    compaction + snapshot hot-swap (dynamic mode)
//	GET  /healthz                             liveness + dataset shape + generation
//	GET  /stats                               cache/shed/latency counters
//
// The server owns its serving state: one Snapshot (querier, generation,
// optional lin engine) behind an atomic pointer, the type ReadSnapshot
// restores from disk. A hot-swap installs the next snapshot without a lin
// engine; a dynamic server given one re-solves it in the background with
// its own options, and lin requests answer 503 with Retry-After until it
// lands.
//
// Consistency caveat: cached entries are frozen estimates. Because every
// estimator is deterministic in (query, seed, generation) and the key
// names the backend, a hit is bit-identical to recomputing — caching
// changes latency, never answers.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"cloudwalker/internal/core"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/linserve"
	"cloudwalker/internal/metrics"
)

// Config tunes a Server around a core.Querier (passed to New). Zero
// values are serving-ready defaults.
type Config struct {
	// CacheSize is the total result-cache capacity in entries. 0 means
	// DefaultCacheSize; negative disables caching (every request
	// recomputes — the uncached arm of the serving benchmark).
	CacheSize int
	// MaxInFlight bounds concurrently-served query requests; excess
	// requests are shed with 429. 0 means 4×GOMAXPROCS; negative
	// disables admission control.
	MaxInFlight int
	// MaxBatch bounds the pair count of one /pairs request. 0 means
	// DefaultMaxBatch.
	MaxBatch int
	// Lin is the optional linearized engine answering backend=lin queries
	// (built by cloudwalkerd -lin or restored from a snapshot's lin
	// section). It must be bound to the querier's graph. Without it,
	// backend=lin requests answer 400. A dynamic server re-solves it for
	// every swapped-in graph with its own Options().
	Lin *linserve.Engine
	// EnablePprof mounts net/http/pprof under /debug/pprof/ so serving
	// hotspots (walk kernels, cache contention) are profilable in
	// production. Off by default: the profile endpoints expose internals
	// and cost CPU, so operators opt in per deployment (cloudwalkerd
	// -pprof).
	EnablePprof bool
	// ShardName, when set, is stamped on every response as the
	// X-Cloudwalker-Shard header. Fleet deployments (internal/fleet) name
	// their shards so routing, failover, and e2e tests can prove which
	// process actually served an answer.
	ShardName string
	// SnapshotDir, when set, enables snapshot persistence: POST /snapshot
	// writes the serving snapshot (graph + index + walk options + lin
	// engine + generation) atomically into this directory, and
	// cloudwalkerd -snapshot reloads it at startup so a restarted daemon
	// serves bit-identical answers without re-running BuildIndex. Empty
	// disables POST /snapshot (503).
	SnapshotDir string
	// InitialGen stamps the starting snapshot's generation. Estimates are
	// deterministic per (pair, seed, generation), so a server restored
	// from a persisted snapshot must resume the generation it saved —
	// otherwise its gen-prefixed cache keys and GenHeader would disagree
	// with the fleet's view. Edits applied through POST /edges count on
	// from it.
	InitialGen uint64

	// Dynamic enables the mutable-graph serving path: POST /edges logs
	// incremental edge updates against the querier's graph, and a
	// background compaction periodically hot-swaps queries to a fresh
	// snapshot. The refresh goroutine rebuilds the index on the compacted
	// graph with the serving index's options (core.BuildIndex), so
	// post-swap estimates are exactly what an offline rebuild would
	// produce. With Lin set, the swap does not wait on a diagonal solve:
	// the engine is re-solved with Lin.Options() on a background
	// goroutine, lin requests answer 503 with Retry-After meanwhile (mc
	// ones are unaffected), /healthz reports the solve as lin_rebuilding,
	// and the engine flips in only if its snapshot is still current.
	// False = static serving (updates answer 503).
	Dynamic bool
	// RefreshAfter automatically starts a background refresh once this
	// many updates are pending since the last compaction. 0 = manual
	// (POST /refresh only); ignored unless Dynamic.
	RefreshAfter int
}

// Defaults for Config zero values.
const (
	DefaultCacheSize   = 4096
	DefaultCacheShards = 16
	DefaultMaxBatch    = 1024
	maxTopK            = 1000
	// maxParts bounds the N of a part=i/N partition parameter; a fleet
	// larger than this would return result sets too small to merge
	// meaningfully anyway.
	maxParts = 1024
)

// Response headers of the shard/fleet protocol.
const (
	// GenHeader carries the graph generation a response was computed
	// against. The fleet router reads it without parsing bodies: its
	// generation floor refuses a 200 below the highest generation it
	// has relayed.
	GenHeader = "X-Cloudwalker-Gen"
	// ShardHeader carries Config.ShardName, identifying which process
	// served a response.
	ShardHeader = "X-Cloudwalker-Shard"
	// BackendHeader carries the effective backend of a query response (mc
	// or lin), observable without parsing bodies.
	BackendHeader = "X-Cloudwalker-Backend"
)

// Server is the HTTP serving tier. Create with New, expose with Handler.
type Server struct {
	snaps atomic.Pointer[Snapshot] // current serving snapshot (hot-swapped by refresh)
	cache *Cache                   // nil when caching is disabled
	mux   *http.ServeMux

	// Dynamic-graph plumbing (nil/zero for a static server).
	dyn          *graph.Dynamic
	refreshAfter int
	refreshMu    chan struct{}     // 1-slot semaphore serializing refreshes
	linOpts      *linserve.Options // non-nil: re-solve the lin engine after each swap
	linSolving   atomic.Uint64     // generation of the newest lin re-solve in flight; 0 = none

	flight    flightGroup[*answer]
	gate      chan struct{} // nil when admission control is disabled
	maxBatch  int
	shardName string
	snapDir   string // "" disables POST /snapshot
	start     time.Time

	inFlight atomic.Int64

	// Serving counters live in the metrics registry, and /stats reads the
	// SAME Counter values /metrics scrapes — the JSON numbers cannot drift
	// from the Prometheus ones because there is only one set of numbers.
	reg       *metrics.Registry
	shed      *metrics.Counter // requests shed with 429
	computes  *metrics.Counter // underlying query computations (cache+coalesce misses)
	coalesced *metrics.Counter // requests that piggybacked on another's computation
	updates   *metrics.Counter // edge deltas applied through POST /edges
	swaps     *metrics.Counter // completed compaction hot-swaps
	snapSaves *metrics.Counter // serving snapshots persisted to disk
	// Adaptive-sampling counters, incremented per underlying computation
	// (cache hits re-serve the stored estimate without re-spending — or
	// re-saving — walkers).
	walkersSaved    *metrics.Counter // walkers the adaptive paths did not run
	adaptiveStopped *metrics.Counter // adaptive computations that stopped early
	// backendQueries counts underlying computations per answering engine
	// (cache hits re-serve without recomputing, so they do not count).
	backendQueries map[string]*metrics.Counter
	// deadlineExceeded counts query requests answered 504 because their
	// propagated deadline (timeout= / X-Cloudwalker-Deadline) expired —
	// on arrival or mid-computation.
	deadlineExceeded *metrics.Counter
	latency          map[string]*metrics.Window

	// testComputeHook, when set, runs at the start of every underlying
	// computation (inside the singleflight, outside the cache) with the
	// computation's key. Tests use it to hold computations open and
	// observe coalescing and shedding; ctx is the computation's context.
	testComputeHook func(ctx context.Context, key string)
	// testRebuildHook, when set, runs at the start of every background lin
	// re-solve with the generation it solves for. Tests use it to hold the
	// 503 window open.
	testRebuildHook func(gen uint64)
}

// New validates cfg and builds a Server.
func New(q *core.Querier, cfg Config) (*Server, error) {
	if q == nil {
		return nil, fmt.Errorf("server: nil querier")
	}
	if cfg.Lin != nil && cfg.Lin.Graph() != q.Graph() {
		return nil, fmt.Errorf("server: linearized engine is bound to a different graph than the querier")
	}
	s := &Server{
		refreshAfter: cfg.RefreshAfter,
		refreshMu:    make(chan struct{}, 1),
		maxBatch:     cfg.MaxBatch,
		shardName:    cfg.ShardName,
		snapDir:      cfg.SnapshotDir,
		start:        time.Now(),
		latency:      make(map[string]*metrics.Window),
	}
	s.snaps.Store(&Snapshot{Q: q, Lin: cfg.Lin, Gen: cfg.InitialGen})
	if cfg.Dynamic {
		s.dyn = graph.NewDynamic(q.Graph(), cfg.InitialGen)
		if cfg.Lin != nil {
			opts := cfg.Lin.Options()
			s.linOpts = &opts
		}
	}
	if s.maxBatch == 0 {
		s.maxBatch = DefaultMaxBatch
	}
	if s.maxBatch < 0 {
		return nil, fmt.Errorf("server: negative max batch %d", cfg.MaxBatch)
	}
	if cfg.CacheSize >= 0 {
		size := cfg.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		cache, err := NewCache(size, DefaultCacheShards)
		if err != nil {
			return nil, err
		}
		s.cache = cache
	}
	if cfg.MaxInFlight >= 0 {
		slots := cfg.MaxInFlight
		if slots == 0 {
			slots = 4 * runtime.GOMAXPROCS(0)
		}
		s.gate = make(chan struct{}, slots)
	}
	s.initMetrics()
	s.mux = http.NewServeMux()
	s.mux.Handle("/pair", s.gated("/pair", http.MethodGet, 0, s.handlePair))
	s.mux.Handle("/pairs", s.gated("/pairs", http.MethodPost, int64(s.maxBatch)*maxPairBytes+4096, s.handlePairs))
	s.mux.Handle("/source", s.gated("/source", http.MethodGet, 0, s.handleSource))
	// Update, refresh, snapshot, and observability run outside the
	// admission gate: a query storm must not shed graph maintenance, and
	// health/metrics must answer precisely when the query path is
	// saturated.
	s.mux.Handle("/edges", Admit(http.MethodPost, maxEdgesBody, s.deadlineExceeded, s.handleEdges))
	s.mux.Handle("/refresh", Admit(http.MethodPost, 0, s.deadlineExceeded, s.handleRefresh))
	s.mux.Handle("/snapshot", Admit(http.MethodPost, 0, s.deadlineExceeded, s.handleSnapshot))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.Handle("/metrics", s.reg.Handler())
	if cfg.EnablePprof {
		// Registered on the server's own mux (not http.DefaultServeMux)
		// and outside the admission gate: profiling must work precisely
		// when the query path is saturated.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// initMetrics builds the server's metrics registry. Counters the request
// path increments are registered here; values owned elsewhere (cache
// counters, in-flight, generation) are sampled at scrape time through
// gauge/counter funcs. Per-endpoint request counters and latency
// histograms are registered by gated().
func (s *Server) initMetrics() {
	r := metrics.NewRegistry()
	s.reg = r
	s.shed = r.NewCounter("cloudwalker_shed_total",
		"Requests shed with 429 by the admission gate.")
	s.computes = r.NewCounter("cloudwalker_computations_total",
		"Underlying query computations (cache and coalesce misses).")
	s.coalesced = r.NewCounter("cloudwalker_coalesced_total",
		"Requests that piggybacked on another request's computation.")
	s.updates = r.NewCounter("cloudwalker_edge_updates_total",
		"Edge deltas applied through POST /edges.")
	s.swaps = r.NewCounter("cloudwalker_snapshot_swaps_total",
		"Completed compaction hot-swaps.")
	s.snapSaves = r.NewCounter("cloudwalker_snapshots_written_total",
		"Serving snapshots persisted to disk through POST /snapshot.")
	s.walkersSaved = r.NewCounter("cloudwalker_walkers_saved_total",
		"Walkers the adaptive sampling paths avoided running (budget minus launched, summed over both endpoints of pair queries).")
	s.adaptiveStopped = r.NewCounter("cloudwalker_adaptive_stopped_total",
		"Adaptive query computations that stopped before the full walker budget.")
	s.deadlineExceeded = r.NewCounter("cloudwalker_deadline_exceeded_total",
		"Query requests answered 504 because their propagated deadline expired.")
	s.backendQueries = make(map[string]*metrics.Counter, 2)
	for _, b := range []string{BackendMC, BackendLin} {
		s.backendQueries[b] = r.NewCounter("cloudwalker_backend_queries_total",
			"Underlying query computations per answering backend (cache hits excluded).",
			metrics.Label{Key: "backend", Value: b})
	}
	r.NewGaugeFunc("cloudwalker_in_flight",
		"Query requests currently being served.",
		func() float64 { return float64(s.inFlight.Load()) })
	r.NewGaugeFunc("cloudwalker_snapshot_generation",
		"Graph generation of the snapshot currently being served.",
		func() float64 { return float64(s.snaps.Load().Gen) })
	r.NewGaugeFunc("cloudwalker_uptime_seconds",
		"Seconds since the serving tier started.",
		func() float64 { return time.Since(s.start).Seconds() })
	if s.cache != nil {
		r.NewCounterFunc("cloudwalker_cache_hits_total",
			"Result-cache hits.",
			func() float64 { return float64(s.cache.Stats().Hits) })
		r.NewCounterFunc("cloudwalker_cache_misses_total",
			"Result-cache misses.",
			func() float64 { return float64(s.cache.Stats().Misses) })
		r.NewCounterFunc("cloudwalker_cache_evictions_total",
			"Result-cache evictions.",
			func() float64 { return float64(s.cache.Stats().Evictions) })
		r.NewGaugeFunc("cloudwalker_cache_entries",
			"Result-cache entries currently held.",
			func() float64 { return float64(s.cache.Stats().Len) })
		r.NewGaugeFunc("cloudwalker_cache_capacity",
			"Result-cache capacity in entries.",
			func() float64 { return float64(s.cache.Stats().Capacity) })
	}
}

// Metrics returns the server's metrics registry (what /metrics serves).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Handler returns the root http.Handler (mountable under httptest or an
// http.Server). With Config.ShardName set, every response carries the
// shard's name in ShardHeader.
func (s *Server) Handler() http.Handler {
	if s.shardName == "" {
		return s.mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(ShardHeader, s.shardName)
		s.mux.ServeHTTP(w, r)
	})
}

// setGen stamps the generation header on a response. It must run before
// the body is written (headers flush on the first write).
func setGen(w http.ResponseWriter, gen uint64) {
	w.Header().Set(GenHeader, strconv.FormatUint(gen, 10))
}

// setBackend stamps the effective backend on a response; like setGen it
// must run before the body is written.
func setBackend(w http.ResponseWriter, backend string) {
	w.Header().Set(BackendHeader, backend)
}

// gated wraps a query handler with the request prologue (Admit: method,
// deadline — which the walk kernels check at wave boundaries — and body
// limit), the admission gate, and latency recording. Health and stats
// endpoints bypass it: they must answer even when the query path is
// saturated.
func (s *Server) gated(path, method string, maxBody int64, h func(http.ResponseWriter, *http.Request, []byte)) http.Handler {
	rec := metrics.NewWindow(latWindow)
	s.latency[path] = rec
	requests := s.reg.NewCounter("cloudwalker_requests_total",
		"Requests received per query endpoint (before admission).",
		metrics.Label{Key: "endpoint", Value: path})
	duration := s.reg.NewHistogram("cloudwalker_request_duration_seconds",
		"Latency of admitted query requests.", nil,
		metrics.Label{Key: "endpoint", Value: path})
	admit := Admit(method, maxBody, s.deadlineExceeded, func(w http.ResponseWriter, r *http.Request, body []byte) {
		if s.gate != nil {
			select {
			case s.gate <- struct{}{}:
				defer func() { <-s.gate }()
			default:
				s.shed.Inc()
				WriteError(w, http.StatusTooManyRequests, "server saturated (%d in flight), retry later", cap(s.gate))
				return
			}
		}
		s.inFlight.Add(1)
		start := time.Now()
		// Deferred so a handler panic (recovered by net/http) cannot
		// leak an in-flight count or drop the latency sample.
		defer func() {
			d := time.Since(start)
			rec.Observe(d)
			duration.Observe(d.Seconds())
			s.inFlight.Add(-1)
		}()
		h(w, r, body)
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		admit(w, r)
	})
}

// ErrorBody is the JSON error envelope of every non-2xx response. The
// fleet router writes its own errors with WriteError too, so clients see
// one format fleet-wide.
type ErrorBody struct {
	Error string `json:"error"`
}

// WriteError writes status with a formatted ErrorBody.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// WriteJSON writes v as a JSON body.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeComputeError maps a computation failure to a response: the
// request's own deadline expiring mid-computation (or the client going
// away) is a 504 gateway timeout, anything else a 500.
func (s *Server) writeComputeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.deadlineExceeded.Inc()
		WriteError(w, http.StatusGatewayTimeout, "query deadline exceeded")
	case errors.Is(err, context.Canceled):
		WriteError(w, http.StatusGatewayTimeout, "request cancelled")
	default:
		WriteError(w, http.StatusInternalServerError, "%v", err)
	}
}

// pairResponse is the /pair reply. Score is the estimate for the
// canonicalized pair; Cached reports whether it came from the result
// cache (the value is bit-identical either way); Gen is the graph
// generation the estimate was computed against. The adaptive fields are
// present only on adaptive answers (effective epsilon > 0): the
// confidence half-width at the stop point, the walkers actually run per
// endpoint, and whether the query stopped before the full budget.
type pairResponse struct {
	I      int     `json:"i"`
	J      int     `json:"j"`
	Score  float64 `json:"score"`
	Cached bool    `json:"cached"`
	Gen    uint64  `json:"gen"`
	// Backend is the engine that computed (or originally computed, for a
	// cache hit) the score: mc or lin.
	Backend   string  `json:"backend"`
	Epsilon   float64 `json:"epsilon,omitempty"`
	HalfWidth float64 `json:"half_width,omitempty"`
	Walkers   int     `json:"walkers,omitempty"`
	Stopped   bool    `json:"stopped,omitempty"`
}

// linState reports what snap offers a lin plan: a snapshot without an
// engine gets one back from a background re-solve, if the server has a
// lin engine to re-solve.
func (s *Server) linState(snap *Snapshot) linState {
	switch {
	case snap.Lin != nil:
		return linReady
	case s.linOpts != nil:
		return linPending
	}
	return linNone
}

// resolveOrRefuse resolves p against snap, writing the refusal if resolve
// rejects it. A 503 carries Retry-After: the engine it waits for is one
// rebuild away.
func (s *Server) resolveOrRefuse(w http.ResponseWriter, snap *Snapshot, p plan) (plan, bool) {
	p, status, err := resolve(p, s.linState(snap))
	if err != nil {
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		WriteError(w, status, "%v", err)
		return p, false
	}
	return p, true
}

// answerTo runs a parsed plan (or its parse error) through resolve and
// execute. On failure it writes the error response and reports !ok; on
// success it stamps the generation and backend headers and returns the
// effective plan, its answer, and whether the cache supplied it.
func (s *Server) answerTo(w http.ResponseWriter, r *http.Request, snap *Snapshot, p plan, err error) (_ plan, a *answer, hit, ok bool) {
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if p, ok = s.resolveOrRefuse(w, snap, p); !ok {
		return
	}
	if a, hit, err = s.execute(r.Context(), snap, p); err != nil {
		s.writeComputeError(w, err)
		return p, nil, false, false
	}
	setGen(w, snap.Gen)
	setBackend(w, p.backend)
	return p, a, hit, true
}

func (s *Server) handlePair(w http.ResponseWriter, r *http.Request, _ []byte) {
	snap := s.snaps.Load()
	p, i, j, err := parsePair(r.URL.Query(), snap.Q.Graph().NumNodes())
	if p, a, hit, ok := s.answerTo(w, r, snap, p, err); ok {
		WriteJSON(w, pairResponse{
			I: i, J: j, Score: a.score, Cached: hit, Gen: snap.Gen, Backend: p.backend,
			Epsilon: a.eps, HalfWidth: a.halfWidth, Walkers: a.walkers, Stopped: a.stopped,
		})
	}
}

// pairsRequest is the /pairs body; pairsResponse aligns Scores with the
// request's pair order. Epsilon/Delta are optional adaptive-sampling
// targets, read like /pair's parameters (the handler decodes into a
// request whose Delta is already defaultDelta).
type pairsRequest struct {
	Pairs   [][2]int `json:"pairs"`
	Epsilon float64  `json:"epsilon,omitempty"`
	Delta   float64  `json:"delta,omitempty"`
	// Backend chooses the answering engine for the whole batch (mc or
	// lin; empty means mc).
	Backend string `json:"backend,omitempty"`
}

type pairsResponse struct {
	Scores []float64 `json:"scores"`
	// Hits counts the request positions whose pair was in the result
	// cache when the batch looked it up (a repeated pair counts at every
	// position or at none).
	Hits int `json:"cache_hits"`
	// Gen is the single generation every score in the batch was computed
	// against (the handler pins one snapshot for the whole batch, so a
	// batched response can never mix generations).
	Gen uint64 `json:"gen"`
	// Backends counts the batch's scores per answering engine: one key,
	// the batch's backend.
	Backends map[string]int `json:"backends"`
}

// maxPairBytes bounds the JSON text one [i,j] element of a /pairs body
// can need (two 64-bit integers, brackets, commas, generous whitespace);
// with maxBatch it sizes the body limit.
const maxPairBytes = 64

// handlePairs serves a batch as one plan per distinct canonical pair,
// each through the same route → cache → singleflight → estimator path as
// GET /pair: batch results serve later point queries and vice versa, a
// pair another request is already computing is awaited instead of
// recomputed, and the cache misses fan out over worker goroutines.
func (s *Server) handlePairs(w http.ResponseWriter, r *http.Request, body []byte) {
	snap := s.snaps.Load()
	req := pairsRequest{Delta: defaultDelta}
	if err := json.Unmarshal(body, &req); err != nil {
		WriteError(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	if len(req.Pairs) == 0 {
		WriteError(w, http.StatusBadRequest, "empty pair list")
		return
	}
	if len(req.Pairs) > s.maxBatch {
		WriteError(w, http.StatusBadRequest, "batch of %d pairs exceeds limit %d", len(req.Pairs), s.maxBatch)
		return
	}
	// Validate the whole batch BEFORE computing anything: a malformed
	// pair must reject only this request, never after well-formed point
	// queries have coalesced onto flights this batch opened.
	n := snap.Q.Graph().NumNodes()
	for idx, pr := range req.Pairs {
		if pr[0] < 0 || pr[0] >= n || pr[1] < 0 || pr[1] >= n {
			WriteError(w, http.StatusBadRequest, "pair %d: node out of range [0,%d): [%d,%d]", idx, n, pr[0], pr[1])
			return
		}
	}
	p := plan{kind: kindPair, backend: req.Backend, eps: req.Epsilon, delta: req.Delta}
	p, ok := s.resolveOrRefuse(w, snap, p)
	if !ok {
		return
	}
	jobs := make([]job, 0, len(req.Pairs)) // one per distinct canonical pair, in first-seen order
	var misses []int                       // indices into jobs
	at := make([]int, len(req.Pairs))
	seen := make(map[[2]int]int, len(req.Pairs))
	for idx, pr := range req.Pairs {
		p.i, p.j = core.CanonicalPair(pr[0], pr[1])
		cp := [2]int{p.i, p.j}
		u, dup := seen[cp]
		if !dup {
			u = len(jobs)
			seen[cp] = u
			jobs = append(jobs, s.begin(snap.Gen, p))
			if !jobs[u].hit {
				misses = append(misses, u)
			}
		}
		at[idx] = u
	}
	if err := s.executeAll(r.Context(), snap, jobs, misses); err != nil {
		s.writeComputeError(w, err)
		return
	}
	resp := pairsResponse{Scores: make([]float64, len(at)), Gen: snap.Gen, Backends: map[string]int{p.backend: len(at)}}
	for idx, u := range at {
		resp.Scores[idx] = jobs[u].ans.score
		if jobs[u].hit {
			resp.Hits++
		}
	}
	setGen(w, snap.Gen)
	setBackend(w, p.backend)
	WriteJSON(w, resp)
}

// sourceResponse is the /source reply: the k most similar nodes to Node
// (descending score, Node itself excluded). Part echoes a part=i/N
// partition restriction, empty for a whole-space answer.
type sourceResponse struct {
	Node   int    `json:"node"`
	K      int    `json:"k"`
	Part   string `json:"part,omitempty"`
	Cached bool   `json:"cached"`
	Gen    uint64 `json:"gen"`
	// Backend is the engine that computed the answer (mc or lin).
	Backend string          `json:"backend"`
	Results []core.Neighbor `json:"results"`
}

func (s *Server) handleSource(w http.ResponseWriter, r *http.Request, _ []byte) {
	snap := s.snaps.Load()
	p, err := parseSource(r.URL.Query(), snap.Q.Graph().NumNodes())
	if p, a, hit, ok := s.answerTo(w, r, snap, p, err); ok {
		WriteJSON(w, sourceResponse{
			Node: p.i, K: p.k, Part: p.partLabel(), Cached: hit, Gen: snap.Gen,
			Backend: p.backend, Results: a.results,
		})
	}
}

// healthzResponse reports liveness, the served snapshot's shape, and —
// for dynamic servers — the update/compaction state.
type healthzResponse struct {
	Status  string `json:"status"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	Dynamic bool   `json:"dynamic"`
	Gen     uint64 `json:"gen"`
	// Backends lists the engines the CURRENT snapshot can actually serve
	// ("lin" drops out after a hot-swap until re-solved).
	Backends []string `json:"backends"`
	Pending  int      `json:"pending,omitempty"`
	// LinRebuilding reports an in-flight background re-solve of the
	// linearized engine after a hot-swap: "lin" is temporarily absent
	// from Backends, lin requests answer 503, and the engine flips back in
	// when the re-solve lands.
	LinRebuilding bool `json:"lin_rebuilding,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Read before the snapshot: a re-solve clears linSolving only after
	// its engine flipped in, so the pair never reads "missing, and not
	// being solved" for an engine that is about to land.
	solving := s.linSolving.Load() != 0
	snap := s.snaps.Load()
	resp := healthzResponse{
		Status:   "ok",
		Nodes:    snap.Q.Graph().NumNodes(),
		Edges:    snap.Q.Graph().NumEdges(),
		Dynamic:  s.dyn != nil,
		Gen:      snap.Gen,
		Backends: []string{BackendMC},
	}
	if snap.Lin != nil {
		resp.Backends = append(resp.Backends, BackendLin)
	}
	if s.dyn != nil {
		resp.Pending = s.dyn.Pending()
		resp.LinRebuilding = solving && snap.Lin == nil
	}
	setGen(w, snap.Gen)
	WriteJSON(w, resp)
}

// Stats is the /stats payload: a point-in-time snapshot of the serving
// counters.
type Stats struct {
	UptimeSeconds float64                 `json:"uptime_seconds"`
	InFlight      int64                   `json:"in_flight"`
	Shed          uint64                  `json:"shed"`
	Computations  uint64                  `json:"computations"`
	Coalesced     uint64                  `json:"coalesced"`
	Updates       uint64                  `json:"updates"`
	Swaps         uint64                  `json:"swaps"`
	WalkersSaved  uint64                  `json:"walkers_saved"`
	Stopped       uint64                  `json:"adaptive_stopped"`
	Gen           uint64                  `json:"gen"`
	Backends      map[string]uint64       `json:"backend_queries"`
	Cache         *CacheStats             `json:"cache,omitempty"`
	Endpoints     map[string]LatencyStats `json:"endpoints"`
}

// StatsSnapshot returns the current serving counters (what /stats serves).
func (s *Server) StatsSnapshot() Stats {
	st := Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		InFlight:      s.inFlight.Load(),
		Shed:          s.shed.Value(),
		Computations:  s.computes.Value(),
		Coalesced:     s.coalesced.Value(),
		Updates:       s.updates.Value(),
		Swaps:         s.swaps.Value(),
		WalkersSaved:  s.walkersSaved.Value(),
		Stopped:       s.adaptiveStopped.Value(),
		Gen:           s.snaps.Load().Gen,
		Backends:      make(map[string]uint64, len(s.backendQueries)),
		Endpoints:     make(map[string]LatencyStats, len(s.latency)),
	}
	for b, c := range s.backendQueries {
		st.Backends[b] = c.Value()
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.Cache = &cs
	}
	for path, rec := range s.latency {
		st.Endpoints[path] = latencyStats(rec)
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, s.StatsSnapshot())
}
