package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cloudwalker/internal/metrics"
	"cloudwalker/internal/par"
	"cloudwalker/internal/server"
)

// Mode is the deployment model a router was once configured with.
//
// Deprecated: ignored. Every router owner-routes every query: one shard
// computes each answer, as the broadcast model has one machine answer a
// whole query.
type Mode int

const (
	// Deprecated: ignored.
	Replicated Mode = iota
	// Deprecated: ignored. /source used to be scatter-gathered.
	Partitioned
)

// Config tunes a Router. Zero values are deployment-ready defaults.
type Config struct {
	// Shards is the initial shard list ("host:port" or "http://host:port").
	// Required, deduplicated; membership can change later via
	// /fleet/join and /fleet/leave.
	Shards []string
	// Deprecated: ignored; every query is owner-routed.
	Mode Mode
	// RetryBudget is the size of the retry token bucket (default 10;
	// negative disables budgeting). Retries after a failed attempt and
	// hedges spend a token, hedges only from the upper half of the bucket
	// (the rule is askOrder's); only successful traffic refills, 0.1 per
	// success.
	RetryBudget float64
	// HedgeDelay enables hedged GETs (/pair, /source): after this delay
	// the router races a second replica chain and takes the first clean
	// answer. 0 or negative disables hedging (the default).
	HedgeDelay time.Duration
}

// policy is the router's failure-handling timing. New uses the constants
// below; in-package tests build a router with their own (newRouter), so
// a failure path runs in milliseconds and the prober only when a test
// asks for it.
type policy struct {
	attemptTimeout time.Duration // bounds one attempt against one shard, and one probe
	retryBackoff   time.Duration // base sleep between failover passes, scaled linearly per pass
	maxPasses      int           // full passes over the replica list before a query gives up
	healthInterval time.Duration // health-probe period; 0 runs no prober
}

const (
	attemptTimeout = 5 * time.Second
	retryBackoff   = 25 * time.Millisecond
	// maxPasses carries a query across the moment of a rolling refresh
	// when every replica is failing or below the generation floor: with
	// torn responses on one shard of 3 during back-to-back rolls, one pass
	// failed 0.5% and 0.8% of client requests in two of five runs, three
	// passes none.
	maxPasses = 3
	// healthInterval is how soon a restarted shard gets back the keys it
	// owns: without a prober, a shard marked down is tried only as a last
	// resort.
	healthInterval = 500 * time.Millisecond
	// maxShardBody bounds what the router buffers of a client body and
	// of a shard response.
	maxShardBody = 16 << 20
	// refreshTimeout bounds one shard's synchronous compaction/reindex
	// during a rolling refresh — index rebuilds dwarf query latency.
	refreshTimeout = 120 * time.Second
	// refreshAttempts bounds how many times the roll tries one shard
	// before skipping it: a dead shard must not stall the whole fleet.
	refreshAttempts = 2
	// retryRatio is the retry-budget refill per successful request: at
	// most ~10% of traffic can be retries in steady state.
	retryRatio = 0.1
)

// shardState is the router's live view of one shard process. up is its
// one liveness state: a failed query attempt or probe clears it (a live
// shard's refusal does not, see shardReply.declined), a valid reply or a
// live probe sets it, and healthyFirst ranks a down shard last.
type shardState struct {
	addr string // "host:port" — the ring member key
	base string // "http://host:port"
	up   atomic.Bool
	gen  atomic.Uint64 // highest generation seen in a response or probe
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
func (sh *shardState) observeGen(v uint64) { raiseMax(&sh.gen, v) }

// raiseMax raises a to v unless it already holds v or more.
func raiseMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Router is the fleet frontend: an http.Handler exposing the same query
// surface as a single cloudwalkerd (/pair, /pairs, /source, /edges,
// /refresh, /healthz, /stats) over N shard processes, plus
// /fleet/join and /fleet/leave for membership changes. Create with New,
// expose with Handler, stop the health prober with Close.
type Router struct {
	cfg    Config // normalized: defaults applied, disabled knobs 0
	pol    policy
	client *http.Client
	budget *retryBudget
	// served is the generation floor: the highest generation of any 200
	// the router has relayed. askOrder treats a 200 below it as stale, so
	// no client sees the graph move backwards after a newer answer.
	served atomic.Uint64

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
	genRetries       *metrics.Counter
	badBodies        *metrics.Counter
	shardErrors      *metrics.Counter
	rollsDone        *metrics.Counter
	budgetExhausted  *metrics.Counter
	hedgesWon        *metrics.Counter
	hedgesLost       *metrics.Counter
	deadlineExceeded *metrics.Counter
}

// New validates cfg, builds the ring, and starts the health prober.
func New(cfg Config) (*Router, error) {
	return newRouter(cfg, policy{attemptTimeout, retryBackoff, maxPasses, healthInterval})
}

// newRouter is New with the failure-handling timing pol.
func newRouter(cfg Config, pol policy) (*Router, error) {
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
	cfg.Shards = addrs
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 10
	}
	cfg.RetryBudget = max(cfg.RetryBudget, 0) // negative: no budget
	rt := &Router{
		cfg: cfg,
		pol: pol,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}},
		budget:         newRetryBudget(cfg.RetryBudget, retryRatio),
		ring:           NewRing(addrs, 0),
		shards:         make(map[string]*shardState, len(addrs)),
		pendingRefresh: make(map[string]bool),
		start:          time.Now(),
		stopc:          make(chan struct{}),
	}
	for _, a := range addrs {
		rt.shards[a] = rt.newShardState(a)
	}
	rt.initMetrics()
	rt.mux = http.NewServeMux()
	for _, rw := range []route{
		{"/pair", http.MethodGet, 0, rt.parsePair},
		{"/pairs", http.MethodPost, maxShardBody, rt.parsePairs},
		{"/source", http.MethodGet, 0, rt.parseSource},
	} {
		rt.mux.Handle(rw.path, rt.serve(rw))
	}
	post := func(maxBody int64, h func(http.ResponseWriter, *http.Request, []byte)) http.Handler {
		return server.Admit(http.MethodPost, maxBody, rt.deadlineExceeded, h)
	}
	rt.mux.Handle("/edges", post(maxShardBody, rt.handleEdges))
	rt.mux.Handle("/refresh", post(0, rt.handleRefresh))
	rt.mux.Handle("/fleet/join", post(maxShardBody, rt.handleJoin))
	rt.mux.Handle("/fleet/leave", post(maxShardBody, rt.handleLeave))
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/stats", rt.handleStats)
	rt.mux.Handle("/metrics", rt.reg.Handler())
	if pol.healthInterval > 0 {
		go rt.probeLoop(pol.healthInterval)
	}
	return rt, nil
}

// initMetrics builds the router's metrics registry: the fleet counters,
// per-shard liveness/generation collectors (their label sets follow ring
// membership, materialized at scrape time), and per-endpoint routed
// latency histograms (registered by serve).
func (rt *Router) initMetrics() {
	r := metrics.NewRegistry()
	rt.reg = r
	rt.requests = r.NewCounter("cloudwalker_fleet_requests_total",
		"Requests routed by the fleet frontend.")
	rt.failovers = r.NewCounter("cloudwalker_fleet_failovers_total",
		"Requests answered by a fallback replica after earlier attempts failed.")
	rt.genRetries = r.NewCounter("cloudwalker_fleet_gen_retries_total",
		"Free retries after a shard answered below the generation floor.")
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
	perShard := func(name, help string, value func(*shardState) float64) {
		r.NewGaugeCollector(name, help, func() []metrics.Sample {
			_, states := rt.membership()
			out := make([]metrics.Sample, len(states))
			for i, sh := range states {
				out[i] = metrics.Sample{Labels: []metrics.Label{{Key: "shard", Value: sh.addr}}, Value: value(sh)}
			}
			return out
		})
	}
	perShard("cloudwalker_fleet_shard_up", "Per-shard liveness (1 up, 0 down).", func(sh *shardState) float64 {
		if sh.up.Load() {
			return 1
		}
		return 0
	})
	perShard("cloudwalker_fleet_shard_generation", "Highest graph generation observed per shard.",
		func(sh *shardState) float64 { return float64(sh.gen.Load()) })
}

// Metrics returns the router's metrics registry (what /metrics serves).
func (rt *Router) Metrics() *metrics.Registry { return rt.reg }

func (rt *Router) newShardState(addr string) *shardState {
	sh := &shardState{addr: addr, base: "http://" + addr}
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

// post sends one maintenance POST (/edges, /refresh) to sh and decodes
// its 200 reply into out. A transport error, any other status, and an
// undecodable body are errors, counted like any failed shard reply.
func (rt *Router) post(ctx context.Context, sh *shardState, path string, body []byte, timeout time.Duration, out any) error {
	rep, err := rt.do(ctx, sh, http.MethodPost, path, body, timeout)
	if err == nil && rep.status != http.StatusOK {
		err = fmt.Errorf("fleet: shard %s: status %d: %s", sh.addr, rep.status, truncateBody(rep.body))
	}
	if err != nil {
		rt.shardErrors.Inc()
		return err
	}
	if err := json.Unmarshal(rep.body, out); err != nil {
		rt.badBodies.Inc()
		return fmt.Errorf("fleet: bad %s body from shard %s: %w", path, sh.addr, err)
	}
	return nil
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
func (rt *Router) handleEdges(w http.ResponseWriter, r *http.Request, body []byte) {
	rt.requests.Inc()
	_, states := rt.membership()
	replies := make([]edgesFleetResponse, len(states))
	errs := make([]error, len(states))
	par.Chunks(len(states), len(states), func(i, _, _ int) {
		errs[i] = rt.post(r.Context(), states[i], "/edges", body, rt.pol.attemptTimeout, &replies[i])
	})
	var failed []string
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err.Error())
		}
	}
	if len(failed) > 0 {
		server.WriteError(w, http.StatusBadGateway,
			"edge update failed on %d/%d shards (safe to retry verbatim — updates are idempotent): %s",
			len(failed), len(states), strings.Join(failed, "; "))
		return
	}
	resp := replies[0]
	resp.Shards = len(states)
	server.WriteJSON(w, resp)
}

// refreshFleetResponse is the router's POST /refresh reply: the rolling
// compaction's outcome per shard, in roll order. Skipped lists shards
// the roll gave up on after bounded attempts — they keep serving their
// old generation (the generation floor keeps it from answering once the
// router has relayed the new one) and the health prober re-triggers
// their refresh when they recover.
type refreshFleetResponse struct {
	Rolled  int               `json:"rolled"`
	Gen     uint64            `json:"gen"`
	Shards  map[string]uint64 `json:"shards"`
	Skipped []string          `json:"skipped,omitempty"`
}

// handleRefresh rolls a compaction/hot-swap across the fleet ONE SHARD AT
// A TIME (each POST /refresh?wait=1 blocks until that shard swapped).
// During the roll, shards disagree on generation; each answer comes
// whole from one shard, the generation floor keeps answers from moving
// backwards, and when the roll completes every shard serves the new
// generation. Sequential rolling also means N-1 shards always carry
// traffic at full capacity. A shard
// that fails refreshAttempts times is SKIPPED rather than aborting the
// roll: it is reported in the response, remembered, and refreshed by the
// prober's recovery path when it comes back (a refresh is idempotent, so
// the catch-up refresh converges it with the fleet).
func (rt *Router) handleRefresh(w http.ResponseWriter, r *http.Request, _ []byte) {
	rt.requests.Inc()
	_, states := rt.membership()
	resp := refreshFleetResponse{Shards: make(map[string]uint64, len(states))}
	for _, sh := range states {
		gen, err := rt.refreshShard(r.Context(), sh, refreshAttempts)
		if cerr := r.Context().Err(); cerr != nil {
			server.WriteError(w, http.StatusGatewayTimeout, "rolling refresh cancelled at shard %s: %v", sh.addr, cerr)
			return
		}
		if err != nil {
			resp.Skipped = append(resp.Skipped, sh.addr)
			rt.markPendingRefresh(sh.addr)
			continue
		}
		resp.Rolled++
		resp.Gen = gen
		resp.Shards[sh.addr] = gen
	}
	if resp.Rolled == 0 {
		server.WriteError(w, http.StatusBadGateway,
			"rolling refresh reached no shard (%d skipped: %s); re-POST to retry",
			len(resp.Skipped), strings.Join(resp.Skipped, ", "))
		return
	}
	rt.rollsDone.Inc()
	server.WriteJSON(w, resp)
}

// refreshShard runs one shard's compaction/hot-swap (POST
// /refresh?wait=1) up to tries times, backing off between tries, and
// records the generation it reports. The roll and the prober's catch-up
// both go through it.
func (rt *Router) refreshShard(ctx context.Context, sh *shardState, tries int) (uint64, error) {
	var rr struct {
		Gen uint64 `json:"gen"`
	}
	var err error
	for try := 0; try < tries; try++ {
		if try > 0 {
			select {
			case <-time.After(rt.pol.retryBackoff):
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}
		if err = rt.post(ctx, sh, "/refresh?wait=1", nil, refreshTimeout, &rr); err == nil {
			sh.observeGen(rr.Gen)
			return rr.Gen, nil
		}
	}
	return 0, err
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
	Addr string `json:"addr"`
	Up   bool   `json:"up"`
	Gen  uint64 `json:"gen"`
}

// routerHealthz is the router's /healthz payload.
type routerHealthz struct {
	Status string        `json:"status"`
	Shards []shardHealth `json:"shards"`
}

func (rt *Router) shardHealths() []shardHealth {
	_, states := rt.membership()
	out := make([]shardHealth, len(states))
	for i, sh := range states {
		out[i] = shardHealth{Addr: sh.addr, Up: sh.up.Load(), Gen: sh.gen.Load()}
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
	resp := routerHealthz{Status: "ok", Shards: hs}
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
	UptimeSeconds     float64       `json:"uptime_seconds"`
	Requests          uint64        `json:"requests"`
	Failovers         uint64        `json:"failovers"`
	GenRetries        uint64        `json:"gen_retries"`
	BadShardResponses uint64        `json:"bad_shard_responses"`
	ShardErrors       uint64        `json:"shard_errors"`
	RollingRefreshes  uint64        `json:"rolling_refreshes"`
	BudgetExhausted   uint64        `json:"retry_budget_exhausted"`
	RetryTokens       float64       `json:"retry_budget_tokens"`
	HedgesWon         uint64        `json:"hedges_won"`
	HedgesLost        uint64        `json:"hedges_lost"`
	DeadlineExceeded  uint64        `json:"deadline_exceeded"`
	Shards            []shardHealth `json:"shards"`
}

// StatsSnapshot returns the current routing counters (what /stats serves).
func (rt *Router) StatsSnapshot() Stats {
	return Stats{
		UptimeSeconds:     time.Since(rt.start).Seconds(),
		Requests:          rt.requests.Value(),
		Failovers:         rt.failovers.Value(),
		GenRetries:        rt.genRetries.Value(),
		BadShardResponses: rt.badBodies.Value(),
		ShardErrors:       rt.shardErrors.Value(),
		RollingRefreshes:  rt.rollsDone.Value(),
		BudgetExhausted:   rt.budgetExhausted.Value(),
		RetryTokens:       rt.budget.remaining(),
		HedgesWon:         rt.hedgesWon.Value(),
		HedgesLost:        rt.hedgesLost.Value(),
		DeadlineExceeded:  rt.deadlineExceeded.Value(),
		Shards:            rt.shardHealths(),
	}
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, rt.StatsSnapshot())
}

// handleJoin registers a shard with the ring at runtime. The consistent
// ring moves only ~1/(N+1) of the key space to the newcomer (pinned by
// the ring property tests), so caches on existing shards stay warm.
func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request, body []byte) {
	addr, ok := memberAddr(w, body)
	if !ok {
		return
	}
	rt.mu.Lock()
	if rt.ring.Index(addr) >= 0 {
		rt.mu.Unlock()
		server.WriteError(w, http.StatusConflict, "shard %s already registered", addr)
		return
	}
	rt.ring = rt.ring.WithMember(addr)
	rt.shards[addr] = rt.newShardState(addr)
	rt.mu.Unlock()
	server.WriteJSON(w, routerHealthz{Status: "ok", Shards: rt.shardHealths()})
}

// handleLeave deregisters a shard (planned drain or permanent removal).
func (rt *Router) handleLeave(w http.ResponseWriter, r *http.Request, body []byte) {
	addr, ok := memberAddr(w, body)
	if !ok {
		return
	}
	rt.mu.Lock()
	if rt.ring.Index(addr) < 0 {
		rt.mu.Unlock()
		server.WriteError(w, http.StatusNotFound, "shard %s not registered", addr)
		return
	}
	if rt.ring.Len() == 1 {
		rt.mu.Unlock()
		server.WriteError(w, http.StatusConflict, "cannot remove the last shard")
		return
	}
	rt.ring = rt.ring.WithoutMember(addr)
	delete(rt.shards, addr)
	rt.mu.Unlock()
	// A departed shard owes the fleet nothing: drop any pending catch-up
	// refresh so the prober never chases a removed member.
	rt.takePendingRefresh(addr)
	server.WriteJSON(w, routerHealthz{Status: "ok", Shards: rt.shardHealths()})
}

// memberAddr reads a /fleet/join or /fleet/leave body, {"addr":"…"}.
func memberAddr(w http.ResponseWriter, body []byte) (string, bool) {
	var req struct {
		Addr string `json:"addr"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "decoding body: %v", err)
		return "", false
	}
	addr := normalizeAddr(req.Addr)
	if addr == "" {
		server.WriteError(w, http.StatusBadRequest, "missing shard addr")
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
