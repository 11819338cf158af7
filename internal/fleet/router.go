package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cloudwalker/internal/core"
	"cloudwalker/internal/metrics"
	"cloudwalker/internal/server"
)

// Mode selects how the router spreads queries over the fleet — the
// serving-side analogue of the paper's broadcast-vs-RDD deployment
// choice.
type Mode int

const (
	// Replicated treats every shard as a full replica: each query is
	// routed whole to one consistent-hash owner (cache affinity) and
	// fails over to the next replica on the ring. The broadcast model:
	// small-enough graphs, lowest latency, N-way redundancy.
	Replicated Mode = iota
	// Partitioned scatter-gathers single-source queries: each shard
	// computes one partition of the result space (/source with part=i/N)
	// and the router merges the partial top-k lists — the RDD model's
	// scatter-gather shape, bounding per-shard result work and cache
	// footprint as the fleet grows. Point lookups (/pair, /topk) stay
	// owner-routed in both modes.
	Partitioned
)

// ParseMode parses a -mode flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "replicated":
		return Replicated, nil
	case "partitioned":
		return Partitioned, nil
	default:
		return 0, fmt.Errorf("fleet: unknown mode %q (want replicated or partitioned)", s)
	}
}

func (m Mode) String() string {
	if m == Partitioned {
		return "partitioned"
	}
	return "replicated"
}

// Config tunes a Router. Zero values are deployment-ready defaults.
type Config struct {
	// Shards is the initial shard list ("host:port" or "http://host:port").
	// Required, deduplicated; membership can change later via
	// /fleet/join and /fleet/leave.
	Shards []string
	// Mode is the deployment model (default Replicated).
	Mode Mode
	// AttemptTimeout bounds one attempt against one shard (default 5s).
	AttemptTimeout time.Duration
	// RefreshTimeout bounds one shard's synchronous compaction/reindex
	// during a rolling refresh (default 120s — index rebuilds dwarf
	// query latency).
	RefreshTimeout time.Duration
	// RetryBackoff is the base sleep between full failover passes
	// (default 25ms, scaled linearly per pass).
	RetryBackoff time.Duration
	// MaxPasses is how many full passes over the replica list a query
	// makes before giving up (default 3).
	MaxPasses int
	// HealthInterval is the background health-probe period (default
	// 500ms; negative disables probing — shard liveness is then learned
	// only from request failures).
	HealthInterval time.Duration
	// RetryBudget is the size of the retry token bucket (default 10;
	// negative disables budgeting). Every attempt after a request's
	// first spends a token; only successful traffic refills.
	RetryBudget float64
	// RetryRatio is the refill per successful request (default 0.1 —
	// at most ~10% of traffic can be retries in steady state).
	RetryRatio float64
	// BreakerThreshold is the consecutive-failure count that trips a
	// shard's circuit breaker (default 5; negative disables breakers).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before
	// letting a half-open probe through (default 1s).
	BreakerCooldown time.Duration
	// HedgeDelay enables hedged replicated GETs: after this delay the
	// router races a second replica chain and takes the first clean
	// answer. 0 disables hedging (the default); negative derives the
	// delay from the observed p99 of successful attempts.
	HedgeDelay time.Duration
	// MaxPartialLoss is how many scatter partitions may be dropped from
	// a /source?allow_partial=1 answer before the router gives up and
	// errors (default 1; negative disables partial answers).
	MaxPartialLoss int
	// Client overrides the HTTP client (tests). Default: a pooled
	// transport client.
	Client *http.Client
}

// maxShardBody bounds how much of a shard response the router buffers.
const maxShardBody = 16 << 20

// genPasses bounds the generation-coordination retry loop of a
// scatter-gather (see scatter.go).
const genPasses = 8

// shardState is the router's live view of one shard process.
type shardState struct {
	addr string // "host:port" — the ring member key
	base string // "http://host:port"
	up   atomic.Bool
	gen  atomic.Uint64 // highest generation seen in a response or probe
	br   breaker       // traffic-driven circuit breaker (see breaker.go)
}

// observeGen records a generation seen in a response or probe, keeping
// the maximum. Observations race: a slow probe that parsed generation G
// can land AFTER a request already recorded G+1 from the same shard, and
// a plain Store would roll the fleet's view of that shard backwards —
// leaving it marked up with a stale generation. Generations are
// monotonic per shard, so taking the max is the race-free resolution.
// (A shard restarted without -snapshot legitimately resets its counter;
// the health view then over-reports until the shard catches up, which is
// benign — and moot when shards persist snapshots, since a restore
// resumes the saved generation.)
func (sh *shardState) observeGen(v uint64) {
	for {
		cur := sh.gen.Load()
		if v <= cur || sh.gen.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Router is the fleet frontend: an http.Handler exposing the same query
// surface as a single cloudwalkerd (/pair, /pairs, /source, /topk,
// /edges, /refresh, /healthz, /stats) over N shard processes, plus
// /fleet/join and /fleet/leave for membership changes. Create with New,
// expose with Handler, stop the health prober with Close.
type Router struct {
	mode           Mode
	client         *http.Client
	attemptTimeout time.Duration
	refreshTimeout time.Duration
	retryBackoff   time.Duration
	maxPasses      int
	hedgeDelay     time.Duration
	maxPartialLoss int
	brThreshold    int
	brCooldown     time.Duration

	budget    *retryBudget
	latencies *metrics.Window

	mu     sync.RWMutex
	ring   *Ring
	shards map[string]*shardState

	// pendingRefresh remembers shards skipped by a bounded rolling
	// refresh; the health prober re-triggers their refresh on recovery.
	pendingMu      sync.Mutex
	pendingRefresh map[string]bool

	mux      *http.ServeMux
	start    time.Time
	stopc    chan struct{}
	stopOnce sync.Once

	// Fleet counters live in the metrics registry; /stats reads the SAME
	// Counter values /metrics scrapes (see internal/metrics).
	reg              *metrics.Registry
	requests         *metrics.Counter
	failovers        *metrics.Counter
	scatters         *metrics.Counter
	genRetries       *metrics.Counter
	badBodies        *metrics.Counter
	shardErrors      *metrics.Counter
	rollsDone        *metrics.Counter
	budgetExhausted  *metrics.Counter
	hedgesWon        *metrics.Counter
	hedgesLost       *metrics.Counter
	partialResponses *metrics.Counter
	deadlineExceeded *metrics.Counter
}

// New validates cfg, builds the ring, and starts the health prober.
func New(cfg Config) (*Router, error) {
	addrs := make([]string, 0, len(cfg.Shards))
	seen := make(map[string]bool)
	for _, s := range cfg.Shards {
		a := normalizeAddr(s)
		if a == "" {
			return nil, fmt.Errorf("fleet: empty shard address in %q", cfg.Shards)
		}
		if !seen[a] {
			seen[a] = true
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("fleet: router needs at least one shard")
	}
	rt := &Router{
		mode:           cfg.Mode,
		client:         cfg.Client,
		attemptTimeout: cfg.AttemptTimeout,
		refreshTimeout: cfg.RefreshTimeout,
		retryBackoff:   cfg.RetryBackoff,
		maxPasses:      cfg.MaxPasses,
		hedgeDelay:     cfg.HedgeDelay,
		maxPartialLoss: cfg.MaxPartialLoss,
		brThreshold:    cfg.BreakerThreshold,
		brCooldown:     cfg.BreakerCooldown,
		ring:           NewRing(addrs, 0),
		shards:         make(map[string]*shardState, len(addrs)),
		pendingRefresh: make(map[string]bool),
		latencies:      metrics.NewWindow(hedgeWindow),
		start:          time.Now(),
		stopc:          make(chan struct{}),
	}
	if rt.attemptTimeout <= 0 {
		rt.attemptTimeout = 5 * time.Second
	}
	if rt.refreshTimeout <= 0 {
		rt.refreshTimeout = 120 * time.Second
	}
	if rt.retryBackoff <= 0 {
		rt.retryBackoff = 25 * time.Millisecond
	}
	if rt.maxPasses <= 0 {
		rt.maxPasses = 3
	}
	if rt.maxPartialLoss == 0 {
		rt.maxPartialLoss = 1
	} else if rt.maxPartialLoss < 0 {
		rt.maxPartialLoss = 0 // partial answers disabled
	}
	switch {
	case rt.brThreshold == 0:
		rt.brThreshold = 5
	case rt.brThreshold < 0:
		rt.brThreshold = 0 // breakers disabled
	}
	if rt.brCooldown <= 0 {
		rt.brCooldown = time.Second
	}
	budgetMax, budgetRatio := cfg.RetryBudget, cfg.RetryRatio
	if budgetMax == 0 {
		budgetMax = 10
	} else if budgetMax < 0 {
		budgetMax = 0 // budgeting disabled
	}
	if budgetRatio <= 0 {
		budgetRatio = 0.1
	}
	rt.budget = newRetryBudget(budgetMax, budgetRatio)
	if rt.client == nil {
		rt.client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	for _, a := range addrs {
		rt.shards[a] = rt.newShardState(a)
	}
	rt.initMetrics()
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("/pair", rt.timed("/pair", rt.handlePair))
	rt.mux.HandleFunc("/pairs", rt.timed("/pairs", rt.handlePairs))
	rt.mux.HandleFunc("/source", rt.timed("/source", rt.handleSource))
	rt.mux.HandleFunc("/topk", rt.timed("/topk", rt.handleTopK))
	rt.mux.HandleFunc("/edges", rt.handleEdges)
	rt.mux.HandleFunc("/refresh", rt.handleRefresh)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/stats", rt.handleStats)
	rt.mux.Handle("/metrics", rt.reg.Handler())
	rt.mux.HandleFunc("/fleet/join", rt.handleJoin)
	rt.mux.HandleFunc("/fleet/leave", rt.handleLeave)
	interval := cfg.HealthInterval
	if interval == 0 {
		interval = 500 * time.Millisecond
	}
	if interval > 0 {
		go rt.probeLoop(interval)
	}
	return rt, nil
}

// initMetrics builds the router's metrics registry: the fleet counters,
// per-shard liveness/generation collectors (their label sets follow ring
// membership, materialized at scrape time), and per-endpoint routed
// latency histograms (registered by timed).
func (rt *Router) initMetrics() {
	r := metrics.NewRegistry()
	rt.reg = r
	rt.requests = r.NewCounter("cloudwalker_fleet_requests_total",
		"Requests routed by the fleet frontend.")
	rt.failovers = r.NewCounter("cloudwalker_fleet_failovers_total",
		"Requests answered by a fallback replica after earlier attempts failed.")
	rt.scatters = r.NewCounter("cloudwalker_fleet_scatters_total",
		"Scatter-gather fan-outs executed.")
	rt.genRetries = r.NewCounter("cloudwalker_fleet_gen_retries_total",
		"Scatter passes retried to reach generation agreement.")
	rt.badBodies = r.NewCounter("cloudwalker_fleet_bad_shard_responses_total",
		"Shard responses that failed parsing or validation.")
	rt.shardErrors = r.NewCounter("cloudwalker_fleet_shard_errors_total",
		"Failed shard attempts (transport errors, 5xx, shed 429s).")
	rt.rollsDone = r.NewCounter("cloudwalker_fleet_rolling_refreshes_total",
		"Completed fleet-wide rolling refreshes.")
	rt.budgetExhausted = r.NewCounter("cloudwalker_retry_budget_exhausted_total",
		"Retries or hedges suppressed because the retry token bucket was empty.")
	rt.hedgesWon = r.NewCounter("cloudwalker_hedges_total",
		"Hedged replica requests launched, by whether the hedge beat the primary.",
		metrics.Label{Key: "won", Value: "true"})
	rt.hedgesLost = r.NewCounter("cloudwalker_hedges_total",
		"Hedged replica requests launched, by whether the hedge beat the primary.",
		metrics.Label{Key: "won", Value: "false"})
	rt.partialResponses = r.NewCounter("cloudwalker_partial_responses_total",
		"Degraded /source answers served from surviving partitions.")
	rt.deadlineExceeded = r.NewCounter("cloudwalker_deadline_exceeded_total",
		"Requests that failed because their deadline expired.")
	r.NewGaugeFunc("cloudwalker_fleet_uptime_seconds",
		"Seconds since the router started.",
		func() float64 { return time.Since(rt.start).Seconds() })
	r.NewGaugeFunc("cloudwalker_fleet_shards",
		"Shards currently in the ring.",
		func() float64 {
			_, states := rt.membership()
			return float64(len(states))
		})
	r.NewGaugeCollector("cloudwalker_fleet_shard_up",
		"Per-shard liveness (1 up, 0 down).",
		func() []metrics.Sample {
			_, states := rt.membership()
			out := make([]metrics.Sample, len(states))
			for i, sh := range states {
				v := 0.0
				if sh.up.Load() {
					v = 1
				}
				out[i] = metrics.Sample{Labels: []metrics.Label{{Key: "shard", Value: sh.addr}}, Value: v}
			}
			return out
		})
	r.NewGaugeCollector("cloudwalker_breaker_state",
		"Per-shard circuit-breaker state (0 closed, 1 half-open, 2 open).",
		func() []metrics.Sample {
			_, states := rt.membership()
			out := make([]metrics.Sample, len(states))
			for i, sh := range states {
				out[i] = metrics.Sample{Labels: []metrics.Label{{Key: "shard", Value: sh.addr}}, Value: float64(sh.br.current())}
			}
			return out
		})
	r.NewGaugeCollector("cloudwalker_fleet_shard_generation",
		"Highest graph generation observed per shard.",
		func() []metrics.Sample {
			_, states := rt.membership()
			out := make([]metrics.Sample, len(states))
			for i, sh := range states {
				out[i] = metrics.Sample{Labels: []metrics.Label{{Key: "shard", Value: sh.addr}}, Value: float64(sh.gen.Load())}
			}
			return out
		})
}

// Metrics returns the router's metrics registry (what /metrics serves).
func (rt *Router) Metrics() *metrics.Registry { return rt.reg }

// timed wraps a routed query handler with a per-endpoint latency
// histogram (fleet-side latency: includes every shard attempt, backoff,
// and failover the router performed on the client's behalf) and with
// request-deadline handling: a timeout= parameter or DeadlineHeader is
// parsed here, attached to the request context (so every shard attempt
// inherits it and do() forwards it), and answered 504 immediately when
// already expired.
func (rt *Router) timed(path string, h http.HandlerFunc) http.HandlerFunc {
	duration := rt.reg.NewHistogram("cloudwalker_fleet_request_duration_seconds",
		"Latency of routed query requests, including failover attempts.", nil,
		metrics.Label{Key: "endpoint", Value: path})
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() { duration.Observe(time.Since(start).Seconds()) }()
		dl, ok, err := server.ParseDeadline(r, start)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if ok {
			if !dl.After(start) {
				rt.deadlineExceeded.Inc()
				writeError(w, http.StatusGatewayTimeout, "request deadline already expired")
				return
			}
			ctx, cancel := context.WithDeadline(r.Context(), dl)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

func (rt *Router) newShardState(addr string) *shardState {
	sh := &shardState{addr: addr, base: "http://" + addr,
		br: newBreaker(rt.brThreshold, rt.brCooldown)}
	sh.up.Store(true) // optimistic until the first probe or failure
	return sh
}

// normalizeAddr strips an http:// prefix and trailing slashes so ring
// membership is keyed by bare host:port.
func normalizeAddr(s string) string {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "http://")
	return strings.TrimRight(s, "/")
}

// Handler returns the router's http.Handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Mode returns the deployment mode.
func (rt *Router) Mode() Mode { return rt.mode }

// Close stops the background health prober. Idempotent.
func (rt *Router) Close() { rt.stopOnce.Do(func() { close(rt.stopc) }) }

// membership returns the current ring and an aligned shard-state slice
// (index i is ring.Members()[i]).
func (rt *Router) membership() (*Ring, []*shardState) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	states := make([]*shardState, len(rt.ring.Members()))
	for i, a := range rt.ring.Members() {
		states[i] = rt.shards[a]
	}
	return rt.ring, states
}

// replicaOrder returns the shards to try for key: the ring's failover
// order, healthy shards (up, breaker admitting traffic) first — the
// prober's view may lag, so down or broken shards stay in the list as a
// last resort rather than being dropped.
func (rt *Router) replicaOrder(key string) []*shardState {
	rt.mu.RLock()
	succ := rt.ring.Successors(key)
	order := make([]*shardState, 0, len(succ))
	var back []*shardState
	now := time.Now()
	for _, a := range succ {
		sh := rt.shards[a]
		if sh.up.Load() && sh.br.ready(now) {
			order = append(order, sh)
		} else {
			back = append(back, sh)
		}
	}
	rt.mu.RUnlock()
	return append(order, back...)
}

// shardReply is one shard's buffered response.
type shardReply struct {
	shard     *shardState
	status    int
	gen       uint64
	hasGen    bool
	shardName string
	backend   string
	body      []byte
}

// do performs one attempt against one shard with the per-attempt timeout,
// buffering the body. Transport errors mark the shard down (the prober
// marks it back up) and count against its circuit breaker — unless the
// PARENT context was cancelled, in which case the failure says nothing
// about the shard (the client gave up, or a hedge race was decided) and
// the attempt is neutral. When the effective context carries a deadline,
// it is forwarded in DeadlineHeader so the shard stops working the moment
// the client's budget runs out.
func (rt *Router) do(ctx context.Context, sh *shardState, method, pathAndQuery string, body []byte, timeout time.Duration) (*shardReply, error) {
	parent := ctx
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, sh.base+pathAndQuery, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(server.DeadlineHeader, server.FormatDeadline(dl))
	}
	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		if parent.Err() != nil {
			return nil, fmt.Errorf("fleet: shard %s: %w", sh.addr, parent.Err())
		}
		sh.up.Store(false)
		sh.br.onFailure(time.Now())
		return nil, fmt.Errorf("fleet: shard %s: %w", sh.addr, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxShardBody+1))
	if err != nil {
		if parent.Err() != nil {
			return nil, fmt.Errorf("fleet: shard %s: reading body: %w", sh.addr, parent.Err())
		}
		sh.up.Store(false)
		sh.br.onFailure(time.Now())
		return nil, fmt.Errorf("fleet: shard %s: reading body: %w", sh.addr, err)
	}
	if len(b) > maxShardBody {
		sh.br.onFailure(time.Now())
		return nil, fmt.Errorf("fleet: shard %s: response exceeds %d bytes", sh.addr, maxShardBody)
	}
	rep := &shardReply{shard: sh, status: resp.StatusCode, body: b, shardName: resp.Header.Get(server.ShardHeader),
		backend: resp.Header.Get(server.BackendHeader)}
	if g := resp.Header.Get(server.GenHeader); g != "" {
		if v, perr := strconv.ParseUint(g, 10, 64); perr == nil {
			rep.gen, rep.hasGen = v, true
		}
	}
	switch {
	case resp.StatusCode >= 500:
		sh.br.onFailure(time.Now())
	case resp.StatusCode == http.StatusTooManyRequests:
		// Shedding is healthy behavior under load: neither a breaker
		// failure (the shard answered) nor a success (it didn't serve).
	default:
		// Record the generation BEFORE flipping the shard up: a reader
		// that sees up=true must not read a generation older than the
		// response that proved the shard alive.
		if rep.hasGen {
			sh.observeGen(rep.gen)
		}
		sh.up.Store(true)
		sh.br.onSuccess()
		rt.latencies.Observe(time.Since(start))
	}
	return rep, nil
}

// askReplicas runs a request down key's failover order until a shard
// produces an authoritative response: a valid 2xx, or any 4xx other than
// 429 (client errors are the same on every replica; 429 means that shard
// is shedding load, so the next replica absorbs the spill). Transport
// errors, 5xx, 429, and bodies that fail validate move on to the next
// replica; between full passes the router backs off linearly. Retries
// beyond a request's first attempt draw from the shared retry budget,
// and GETs are hedged against a second replica when hedging is enabled.
func (rt *Router) askReplicas(ctx context.Context, key, method, pathAndQuery string, body []byte, validate func(*shardReply) error) (*shardReply, error) {
	order := rt.replicaOrder(key)
	if len(order) == 0 {
		return nil, fmt.Errorf("fleet: no shards configured")
	}
	if method == http.MethodGet && len(order) > 1 {
		if delay, ok := rt.hedgeDelayNow(); ok {
			return rt.askHedged(ctx, order, pathAndQuery, validate, delay)
		}
	}
	attempts := 0
	return rt.askOrder(ctx, order, method, pathAndQuery, body, validate, &attempts)
}

// errBudgetExhausted marks a failover cut short by an empty retry token
// bucket (the brownout-amplification guard, see budget.go).
var errBudgetExhausted = fmt.Errorf("fleet: retry budget exhausted")

// askOrder is the failover attempt loop over an explicit shard order.
// attempts counts attempts already charged for this request (hedges
// pre-spend their first token); every attempt after the request's first
// must clear the retry budget or the loop stops early.
func (rt *Router) askOrder(ctx context.Context, order []*shardState, method, pathAndQuery string, body []byte, validate func(*shardReply) error, attempts *int) (*shardReply, error) {
	var lastErr error
	now := time.Now()
	for pass := 0; pass < rt.maxPasses; pass++ {
		if pass > 0 {
			select {
			case <-time.After(time.Duration(pass) * rt.retryBackoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			now = time.Now()
		}
		for _, sh := range order {
			if !sh.br.allow(now) {
				if lastErr == nil {
					lastErr = fmt.Errorf("fleet: shard %s: circuit breaker open", sh.addr)
				}
				continue
			}
			if *attempts > 0 && !rt.budget.spend() {
				rt.budgetExhausted.Inc()
				if lastErr != nil {
					return nil, fmt.Errorf("%w (last error: %v)", errBudgetExhausted, lastErr)
				}
				return nil, errBudgetExhausted
			}
			*attempts++
			rep, err := rt.do(ctx, sh, method, pathAndQuery, body, rt.attemptTimeout)
			if err != nil {
				rt.shardErrors.Inc()
				lastErr = err
				if ctx.Err() != nil {
					return nil, lastErr
				}
				continue
			}
			if rep.status >= 500 || rep.status == http.StatusTooManyRequests {
				rt.shardErrors.Inc()
				lastErr = fmt.Errorf("fleet: shard %s: status %d", sh.addr, rep.status)
				continue
			}
			if rep.status == http.StatusOK && validate != nil {
				if err := validate(rep); err != nil {
					rt.badBodies.Inc()
					sh.br.onFailure(time.Now())
					lastErr = err
					continue
				}
			}
			if *attempts > 1 {
				rt.failovers.Inc()
			}
			rt.budget.success()
			return rep, nil
		}
	}
	return nil, lastErr
}

// errorBody mirrors the shard's JSON error envelope so clients see one
// format fleet-wide.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// passthrough relays a shard reply byte-for-byte (keeping answers
// bit-identical to the shard that computed them), restamping the
// generation and shard headers.
func passthrough(w http.ResponseWriter, rep *shardReply) {
	w.Header().Set("Content-Type", "application/json")
	if rep.hasGen {
		w.Header().Set(server.GenHeader, strconv.FormatUint(rep.gen, 10))
	}
	if rep.shardName != "" {
		w.Header().Set(server.ShardHeader, rep.shardName)
	} else {
		w.Header().Set(server.ShardHeader, rep.shard.addr)
	}
	if rep.backend != "" {
		w.Header().Set(server.BackendHeader, rep.backend)
	}
	w.WriteHeader(rep.status)
	w.Write(rep.body)
}

// relayError maps an exhausted failover to a client response: 504 when
// the request's own deadline ran out, a gateway error naming the last
// failure otherwise.
func (rt *Router) relayError(w http.ResponseWriter, err error) {
	if err == nil {
		err = fmt.Errorf("fleet: no shard produced a response")
	}
	if errors.Is(err, context.DeadlineExceeded) {
		rt.deadlineExceeded.Inc()
		writeError(w, http.StatusGatewayTimeout, "%v", err)
		return
	}
	writeError(w, http.StatusBadGateway, "%v", err)
}

func (rt *Router) handlePair(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed on /pair", r.Method)
		return
	}
	rt.requests.Inc()
	q := r.URL.Query()
	i, err := server.ParseNode(q, "i")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := server.ParseNode(q, "j")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Forward the query string verbatim (i/j were parsed only for the
	// ring key): backend=, epsilon=, timeout= and future parameters reach
	// the shard untouched.
	rep, err := rt.askReplicas(r.Context(), PairKey(core.CanonicalPair(i, j)), http.MethodGet,
		"/pair?"+r.URL.RawQuery, nil,
		func(rep *shardReply) error { _, derr := decodePairBody(rep.body); return derr })
	if err != nil {
		rt.relayError(w, err)
		return
	}
	passthrough(w, rep)
}

func (rt *Router) handleTopK(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed on /topk", r.Method)
		return
	}
	rt.requests.Inc()
	node, err := server.ParseNode(r.URL.Query(), "node")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rep, err := rt.askReplicas(r.Context(), NodeKey(node), http.MethodGet,
		"/topk?"+r.URL.RawQuery, nil, nil)
	if err != nil {
		rt.relayError(w, err)
		return
	}
	passthrough(w, rep)
}

func (rt *Router) handleSource(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed on /source", r.Method)
		return
	}
	rt.requests.Inc()
	q := r.URL.Query()
	node, err := server.ParseNode(q, "node")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	mode := q.Get("mode")
	if mode == "" {
		mode = "walk"
	}
	k, err := server.ParseTopK(q, server.DefaultTopK)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	allowPartial := q.Get("allow_partial") == "1" && rt.maxPartialLoss > 0
	ring, states := rt.membership()
	if rt.mode == Replicated || ring.Len() == 1 {
		// Forward the query string minus allow_partial (meaningless to a
		// single whole-answer shard): backend=, epsilon=, timeout= and
		// future parameters reach the shard untouched.
		q.Del("allow_partial")
		rep, err := rt.askReplicas(r.Context(), NodeKey(node), http.MethodGet,
			"/source?"+q.Encode(), nil,
			func(rep *shardReply) error { _, derr := decodeSourceBody(rep.body); return derr })
		if err != nil {
			rt.relayError(w, err)
			return
		}
		passthrough(w, rep)
		return
	}
	rt.scatterSource(w, r, ring, states, node, k, mode, allowPartial)
}

func (rt *Router) handlePairs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed on /pairs", r.Method)
		return
	}
	rt.requests.Inc()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxShardBody+1))
	if err != nil || len(body) > maxShardBody {
		writeError(w, http.StatusBadRequest, "reading body: oversized or failed")
		return
	}
	var req struct {
		Pairs [][2]int `json:"pairs"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	if len(req.Pairs) == 0 {
		writeError(w, http.StatusBadRequest, "empty pair list")
		return
	}
	// The whole batch goes to ONE shard: a shard pins a single snapshot
	// for the batch, so the response can never mix generations — the
	// same guarantee a scatter would need coordination to provide.
	rep, err := rt.askReplicas(r.Context(), PairKey(core.CanonicalPair(req.Pairs[0][0], req.Pairs[0][1])), http.MethodPost, "/pairs", body,
		func(rep *shardReply) error { _, derr := decodePairsBody(rep.body, len(req.Pairs)); return derr })
	if err != nil {
		rt.relayError(w, err)
		return
	}
	passthrough(w, rep)
}

// edgesFleetResponse is the router's POST /edges reply: the first shard's
// application report plus how many shards applied the update.
type edgesFleetResponse struct {
	Inserted int    `json:"inserted"`
	Deleted  int    `json:"deleted"`
	Gen      uint64 `json:"gen"`
	Pending  int    `json:"pending"`
	Nodes    int    `json:"nodes"`
	Shards   int    `json:"shards"`
}

// handleEdges fans an edge-update batch out to EVERY shard: replicas must
// stay bit-identical, so all of them apply the same deltas. Edge updates
// are idempotent (duplicate inserts and absent deletes are no-ops), so a
// partial failure is safe to retry verbatim — the router reports which
// shards failed and the client retries the whole batch.
func (rt *Router) handleEdges(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed on /edges", r.Method)
		return
	}
	rt.requests.Inc()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxShardBody+1))
	if err != nil || len(body) > maxShardBody {
		writeError(w, http.StatusBadRequest, "reading body: oversized or failed")
		return
	}
	_, states := rt.membership()
	type outcome struct {
		rep *shardReply
		err error
	}
	outcomes := make([]outcome, len(states))
	var wg sync.WaitGroup
	for idx, sh := range states {
		wg.Add(1)
		go func(idx int, sh *shardState) {
			defer wg.Done()
			rep, derr := rt.do(r.Context(), sh, http.MethodPost, "/edges", body, rt.attemptTimeout)
			if derr == nil && rep.status != http.StatusOK {
				derr = fmt.Errorf("fleet: shard %s: status %d: %s", sh.addr, rep.status, truncateBody(rep.body))
			}
			outcomes[idx] = outcome{rep, derr}
		}(idx, sh)
	}
	wg.Wait()
	var failed []string
	for idx, oc := range outcomes {
		if oc.err != nil {
			rt.shardErrors.Inc()
			failed = append(failed, fmt.Sprintf("%s: %v", states[idx].addr, oc.err))
		}
	}
	if len(failed) > 0 {
		writeError(w, http.StatusBadGateway,
			"edge update failed on %d/%d shards (safe to retry verbatim — updates are idempotent): %s",
			len(failed), len(states), strings.Join(failed, "; "))
		return
	}
	var first struct {
		Inserted int    `json:"inserted"`
		Deleted  int    `json:"deleted"`
		Gen      uint64 `json:"gen"`
		Pending  int    `json:"pending"`
		Nodes    int    `json:"nodes"`
	}
	if err := json.Unmarshal(outcomes[0].rep.body, &first); err != nil {
		rt.badBodies.Inc()
		writeError(w, http.StatusBadGateway, "bad /edges body from shard %s: %v", states[0].addr, err)
		return
	}
	writeJSON(w, edgesFleetResponse{
		Inserted: first.Inserted, Deleted: first.Deleted, Gen: first.Gen,
		Pending: first.Pending, Nodes: first.Nodes, Shards: len(states),
	})
}

// refreshFleetResponse is the router's POST /refresh reply: the rolling
// compaction's outcome per shard, in roll order. Skipped lists shards
// the roll gave up on after bounded attempts — they keep serving their
// old generation (scatter's gen coordination keeps answers pure) and the
// health prober re-triggers their refresh when they recover.
type refreshFleetResponse struct {
	Rolled  int               `json:"rolled"`
	Gen     uint64            `json:"gen"`
	Shards  map[string]uint64 `json:"shards"`
	Skipped []string          `json:"skipped,omitempty"`
}

// refreshAttempts bounds how many times the roll tries one shard before
// skipping it: a dead shard must not stall the whole fleet's refresh.
const refreshAttempts = 2

// handleRefresh rolls a compaction/hot-swap across the fleet ONE SHARD AT
// A TIME (each POST /refresh?wait=1 blocks until that shard swapped).
// During the roll, shards disagree on generation; scatter-gather's
// generation coordination keeps client answers pure, and when the roll
// completes every shard serves the new generation. Sequential rolling
// also means N-1 shards always carry traffic at full capacity. A shard
// that fails refreshAttempts times is SKIPPED rather than aborting the
// roll: it is reported in the response, remembered, and refreshed by the
// prober's recovery path when it comes back (a refresh is idempotent, so
// the catch-up refresh converges it with the fleet).
func (rt *Router) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed on /refresh", r.Method)
		return
	}
	rt.requests.Inc()
	_, states := rt.membership()
	resp := refreshFleetResponse{Shards: make(map[string]uint64, len(states))}
	for _, sh := range states {
		var rep *shardReply
		var err error
		for try := 0; try < refreshAttempts; try++ {
			if try > 0 {
				select {
				case <-time.After(rt.retryBackoff):
				case <-r.Context().Done():
					writeError(w, http.StatusGatewayTimeout, "rolling refresh cancelled at shard %s: %v", sh.addr, r.Context().Err())
					return
				}
			}
			rep, err = rt.do(r.Context(), sh, http.MethodPost, "/refresh?wait=1", nil, rt.refreshTimeout)
			if err == nil && rep.status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", rep.status, truncateBody(rep.body))
			}
			if err == nil {
				break
			}
			rt.shardErrors.Inc()
		}
		if err != nil {
			resp.Skipped = append(resp.Skipped, sh.addr)
			rt.markPendingRefresh(sh.addr)
			continue
		}
		var rr struct {
			Gen uint64 `json:"gen"`
		}
		if err := json.Unmarshal(rep.body, &rr); err != nil {
			rt.badBodies.Inc()
			resp.Skipped = append(resp.Skipped, sh.addr)
			rt.markPendingRefresh(sh.addr)
			continue
		}
		resp.Rolled++
		resp.Gen = rr.Gen
		resp.Shards[sh.addr] = rr.Gen
		sh.observeGen(rr.Gen)
	}
	if resp.Rolled == 0 {
		writeError(w, http.StatusBadGateway,
			"rolling refresh reached no shard (%d skipped: %s); re-POST to retry",
			len(resp.Skipped), strings.Join(resp.Skipped, ", "))
		return
	}
	rt.rollsDone.Inc()
	writeJSON(w, resp)
}

// markPendingRefresh remembers a shard whose refresh was skipped so the
// prober can catch it up on recovery.
func (rt *Router) markPendingRefresh(addr string) {
	rt.pendingMu.Lock()
	rt.pendingRefresh[addr] = true
	rt.pendingMu.Unlock()
}

// takePendingRefresh pops a shard's pending-refresh mark, reporting
// whether one was set.
func (rt *Router) takePendingRefresh(addr string) bool {
	rt.pendingMu.Lock()
	defer rt.pendingMu.Unlock()
	if !rt.pendingRefresh[addr] {
		return false
	}
	delete(rt.pendingRefresh, addr)
	return true
}

// shardHealth is one shard's row in the router's /healthz and /stats.
type shardHealth struct {
	Addr    string `json:"addr"`
	Up      bool   `json:"up"`
	Gen     uint64 `json:"gen"`
	Breaker string `json:"breaker"`
}

// routerHealthz is the router's /healthz payload.
type routerHealthz struct {
	Status string        `json:"status"`
	Mode   string        `json:"mode"`
	Shards []shardHealth `json:"shards"`
}

func (rt *Router) shardHealths() []shardHealth {
	_, states := rt.membership()
	out := make([]shardHealth, len(states))
	for i, sh := range states {
		out[i] = shardHealth{Addr: sh.addr, Up: sh.up.Load(), Gen: sh.gen.Load(),
			Breaker: breakerStateName(sh.br.current())}
	}
	return out
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hs := rt.shardHealths()
	up := 0
	for _, h := range hs {
		if h.Up {
			up++
		}
	}
	resp := routerHealthz{Status: "ok", Mode: rt.mode.String(), Shards: hs}
	status := http.StatusOK
	switch {
	case up == 0:
		resp.Status = "down"
		status = http.StatusServiceUnavailable
	case up < len(hs):
		resp.Status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)
}

// Stats is the router's /stats payload.
type Stats struct {
	Mode              string        `json:"mode"`
	UptimeSeconds     float64       `json:"uptime_seconds"`
	Requests          uint64        `json:"requests"`
	Failovers         uint64        `json:"failovers"`
	Scatters          uint64        `json:"scatters"`
	GenRetries        uint64        `json:"gen_retries"`
	BadShardResponses uint64        `json:"bad_shard_responses"`
	ShardErrors       uint64        `json:"shard_errors"`
	RollingRefreshes  uint64        `json:"rolling_refreshes"`
	BudgetExhausted   uint64        `json:"retry_budget_exhausted"`
	RetryTokens       float64       `json:"retry_budget_tokens"`
	HedgesWon         uint64        `json:"hedges_won"`
	HedgesLost        uint64        `json:"hedges_lost"`
	PartialResponses  uint64        `json:"partial_responses"`
	DeadlineExceeded  uint64        `json:"deadline_exceeded"`
	Shards            []shardHealth `json:"shards"`
}

// StatsSnapshot returns the current routing counters (what /stats serves).
func (rt *Router) StatsSnapshot() Stats {
	return Stats{
		Mode:              rt.mode.String(),
		UptimeSeconds:     time.Since(rt.start).Seconds(),
		Requests:          rt.requests.Value(),
		Failovers:         rt.failovers.Value(),
		Scatters:          rt.scatters.Value(),
		GenRetries:        rt.genRetries.Value(),
		BadShardResponses: rt.badBodies.Value(),
		ShardErrors:       rt.shardErrors.Value(),
		RollingRefreshes:  rt.rollsDone.Value(),
		BudgetExhausted:   rt.budgetExhausted.Value(),
		RetryTokens:       rt.budget.remaining(),
		HedgesWon:         rt.hedgesWon.Value(),
		HedgesLost:        rt.hedgesLost.Value(),
		PartialResponses:  rt.partialResponses.Value(),
		DeadlineExceeded:  rt.deadlineExceeded.Value(),
		Shards:            rt.shardHealths(),
	}
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, rt.StatsSnapshot())
}

// joinRequest is the /fleet/join and /fleet/leave body.
type joinRequest struct {
	Addr string `json:"addr"`
}

// handleJoin registers a shard with the ring at runtime. The consistent
// ring moves only ~1/(N+1) of the key space to the newcomer (pinned by
// the ring property tests), so caches on existing shards stay warm.
func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	addr, ok := rt.memberRequest(w, r)
	if !ok {
		return
	}
	rt.mu.Lock()
	if rt.ring.Index(addr) >= 0 {
		rt.mu.Unlock()
		writeError(w, http.StatusConflict, "shard %s already registered", addr)
		return
	}
	rt.ring = rt.ring.WithMember(addr)
	rt.shards[addr] = rt.newShardState(addr)
	rt.mu.Unlock()
	writeJSON(w, routerHealthz{Status: "ok", Mode: rt.mode.String(), Shards: rt.shardHealths()})
}

// handleLeave deregisters a shard (planned drain or permanent removal).
func (rt *Router) handleLeave(w http.ResponseWriter, r *http.Request) {
	addr, ok := rt.memberRequest(w, r)
	if !ok {
		return
	}
	rt.mu.Lock()
	if rt.ring.Index(addr) < 0 {
		rt.mu.Unlock()
		writeError(w, http.StatusNotFound, "shard %s not registered", addr)
		return
	}
	if rt.ring.Len() == 1 {
		rt.mu.Unlock()
		writeError(w, http.StatusConflict, "cannot remove the last shard")
		return
	}
	rt.ring = rt.ring.WithoutMember(addr)
	delete(rt.shards, addr)
	rt.mu.Unlock()
	// A departed shard owes the fleet nothing: drop any pending catch-up
	// refresh so the prober never chases a removed member.
	rt.takePendingRefresh(addr)
	writeJSON(w, routerHealthz{Status: "ok", Mode: rt.mode.String(), Shards: rt.shardHealths()})
}

// memberRequest parses a join/leave request.
func (rt *Router) memberRequest(w http.ResponseWriter, r *http.Request) (string, bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return "", false
	}
	var req joinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding body: %v", err)
		return "", false
	}
	addr := normalizeAddr(req.Addr)
	if addr == "" {
		writeError(w, http.StatusBadRequest, "missing shard addr")
		return "", false
	}
	return addr, true
}

// truncateBody clips a shard body for error messages.
func truncateBody(b []byte) string {
	const max = 200
	if len(b) > max {
		b = b[:max]
	}
	return string(bytes.TrimSpace(b))
}

// sortNeighborWires orders merged scatter results the way a single shard
// orders its own top-k: score descending, ties broken toward the lower
// node id — core.TopKNeighbors's selection order, which is what makes a
// merged answer bit-identical to a single-node one.
func sortNeighborWires(ns []neighborWire) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Score != ns[j].Score {
			return ns[i].Score > ns[j].Score
		}
		return ns[i].Node < ns[j].Node
	})
}
