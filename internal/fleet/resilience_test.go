package fleet

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudwalker/internal/core"
	"cloudwalker/internal/oracle"
	"cloudwalker/internal/server"
)

// Unit coverage of the resilience layer: retry budget, shard liveness,
// hedging, deadlines, bounded rolling refresh, and the generation floor.
// Process-level chaos coverage (injected latency/errors via the chaos
// proxy) lives in the e2etest package.

func TestRetryBudgetTokenBucket(t *testing.T) {
	b := newRetryBudget(3, 0.5)
	for i := 0; i < 3; i++ {
		if !b.spend(false) {
			t.Fatalf("spend %d denied with tokens remaining", i)
		}
	}
	if b.spend(false) {
		t.Fatal("spend allowed on an empty bucket")
	}
	b.success() // +0.5 — still below one whole token
	if b.spend(false) {
		t.Fatal("spend allowed with a fractional token")
	}
	b.success() // +0.5 — one token
	if !b.spend(false) {
		t.Fatal("spend denied after refill")
	}
	for i := 0; i < 100; i++ {
		b.success()
	}
	if got := b.remaining(); got != 3 {
		t.Fatalf("refill exceeded cap: %v tokens, max 3", got)
	}
	// Disabled budget: spend never refuses.
	d := newRetryBudget(0, 0.1)
	for i := 0; i < 50; i++ {
		if !d.spend(false) {
			t.Fatal("disabled budget refused a spend")
		}
	}
}

// TestRetryBudgetCapsBrownoutAmplification is the load-amplification
// proof: with EVERY shard failing (full-fleet brownout), total attempts
// reaching shards must stay ≤ requests + initial budget — each request's
// first attempt plus at most `budget` retries fleet-wide — instead of
// requests × shards × passes.
func TestRetryBudgetCapsBrownoutAmplification(t *testing.T) {
	var attempts atomic.Int64
	mk := func() *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			attempts.Add(1)
			http.Error(w, "brownout", http.StatusInternalServerError)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	a, b, c := mk(), mk(), mk()
	const budget = 10
	rt, fts := serveRouter(t, Config{Shards: []string{a.URL, b.URL, c.URL}, RetryBudget: budget},
		policy{attemptTimeout: time.Second, retryBackoff: time.Microsecond, maxPasses: 3})

	const requests = 50
	for i := 0; i < requests; i++ {
		resp, err := fts.Client().Get(fts.URL + fmt.Sprintf("/pair?i=%d&j=%d", i, i+60))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatal("a fully browned-out fleet answered 200")
		}
	}
	// Unbudgeted, 50 requests × 3 shards × 3 passes = 450 attempts; the
	// budget caps it at requests (first attempts, always free) + budget
	// (retries, no successes to refill).
	if got := attempts.Load(); got > requests+budget {
		t.Fatalf("brownout amplification: %d shard attempts for %d requests (budget %d) — retries are not budgeted",
			got, requests, budget)
	}
	if rt.StatsSnapshot().BudgetExhausted == 0 {
		t.Fatal("budget never reported exhaustion during a full brownout")
	}
}

// outcome is one scripted shard reply in TestAttemptChargeRule.
type outcome int

const (
	answer   outcome = iota // 200 at the current generation (2)
	stale                   // 200 at the previous generation (1)
	refuse                  // transport failure: the connection dies mid-body
	fail500                 // 500
	notFound                // 404, authoritative
	garbage                 // 200 with a body that fails validation
)

// chargeScript serves replies from one script whichever shard an attempt
// lands on.
type chargeScript struct {
	mu      sync.Mutex
	replies []outcome
	served  int
}

func (s *chargeScript) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	o := fail500 // past the end of the script
	if s.served < len(s.replies) {
		o = s.replies[s.served]
	}
	s.served++
	s.mu.Unlock()
	gen := 2
	switch o {
	case refuse:
		w.Header().Set("Content-Length", "4096")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	case fail500:
		http.Error(w, "scripted failure", http.StatusInternalServerError)
	case notFound:
		http.NotFound(w, r)
	case garbage:
		io.WriteString(w, `{trunc`)
	case stale:
		gen = 1
		fallthrough
	default:
		w.Header().Set(server.GenHeader, strconv.Itoa(gen))
		if r.URL.Path == "/pair" {
			fmt.Fprintf(w, `{"i":1,"j":2,"score":0.5,"cached":false,"gen":%d}`, gen)
		} else {
			fmt.Fprintf(w, `{"node":0,"k":20,"gen":%d,"results":[{"node":1,"score":0.5}]}`, gen)
		}
	}
}

// script replaces the replies still to serve and zeroes the count.
func (s *chargeScript) script(replies []outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replies, s.served = replies, 0
}

// TestAttemptChargeRule is the fence around the one attempt loop: each
// row is a sequence of shard outcomes and the retry-budget tokens it
// costs, run through /pair and /source under both Mode values (Mode is
// ignored: every leg is owner-routed and must spend alike; the benchmark
// still sets Partitioned). The router
// has relayed a gen-2 answer first, so a gen-1 reply is below its floor.
// Generation retries and first attempts are free; an attempt after an
// infrastructure failure costs one; an authoritative 4xx stops the loop
// and is relayed.
func TestAttemptChargeRule(t *testing.T) {
	for _, row := range []struct {
		name   string
		script []outcome
		spent  float64
		status int
	}{
		{"transport error, 500, answer", []outcome{refuse, fail500, answer}, 2, http.StatusOK},
		{"stale, stale, answer", []outcome{stale, stale, answer}, 0, http.StatusOK},
		{"404 stops and is relayed", []outcome{notFound}, 0, http.StatusNotFound},
		{"bad body, answer", []outcome{garbage, answer}, 1, http.StatusOK},
	} {
		for _, mode := range []Mode{Replicated, Partitioned} {
			t.Run(row.name+"/"+[]string{"replicated", "partitioned"}[mode], func(t *testing.T) {
				for _, path := range []string{"/pair?i=1&j=2", "/source?node=0"} {
					sc := &chargeScript{}
					a, b := httptest.NewServer(sc), httptest.NewServer(sc)
					t.Cleanup(a.Close)
					t.Cleanup(b.Close)
					rt, fts := serveRouter(t, Config{Shards: []string{a.URL, b.URL}, Mode: mode}, quick)
					rt.budget.ratio = 0 // no refills: tokens spent = 10 - tokens left
					sc.script([]outcome{answer})
					oracle.Get(t, fts.Client(), fts.URL+path, http.StatusOK, nil) // the floor is now gen 2
					sc.script(row.script)
					oracle.Get(t, fts.Client(), fts.URL+path, row.status, nil)
					if spent := 10 - rt.StatsSnapshot().RetryTokens; math.Abs(spent-row.spent) > 1e-9 {
						t.Errorf("%s: spent %v tokens, want %v", path, spent, row.spent)
					}
					sc.mu.Lock()
					if sc.served != len(row.script) {
						t.Errorf("%s: served %d scripted replies, want %d", path, sc.served, len(row.script))
					}
					sc.mu.Unlock()
				}
			})
		}
	}
}

// TestFailedAttemptDemotesAndProbeRestores: a failed request demotes its
// shard at once (visible in /healthz as up false); a successful health
// probe restores it.
func TestFailedAttemptDemotesAndProbeRestores(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	sh := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "sick", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	t.Cleanup(sh.Close)
	rt, fts := serveRouter(t, Config{Shards: []string{sh.URL}},
		policy{attemptTimeout: time.Second, retryBackoff: time.Microsecond, maxPasses: 1})

	oracle.Get(t, fts.Client(), fts.URL+"/pair?i=1&j=2", http.StatusBadGateway, nil)
	var hz routerHealthz
	oracle.Get(t, fts.Client(), fts.URL+"/healthz", http.StatusServiceUnavailable, &hz)
	if hz.Shards[0].Up {
		t.Fatal("shard still up after a 500")
	}
	// Shard recovers; the prober notices and restores it.
	failing.Store(false)
	rt.probeShard(rt.shards[normalizeAddr(sh.URL)])
	oracle.Get(t, fts.Client(), fts.URL+"/healthz", http.StatusOK, &hz)
	if !hz.Shards[0].Up {
		t.Fatal("shard still down after a successful probe")
	}
}

// TestShedAndResolveWindowDemoteNothing: a 429 (the shard is shedding),
// a 503 with Retry-After (a lin request between a swap and its re-solve)
// and a 504 (the request's own deadline) come from a live shard, so they
// neither demote it nor restore it, while a 503 without Retry-After
// demotes it, and a valid reply restores it.
func TestShedAndResolveWindowDemoteNothing(t *testing.T) {
	var status atomic.Int64
	sh := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch st := int(status.Load()); st {
		case http.StatusOK:
			w.Write([]byte(`{"i":1,"j":2,"score":0.5,"cached":false,"gen":0}`))
		case http.StatusServiceUnavailable:
			if r.URL.Query().Get("backend") == "lin" {
				w.Header().Set("Retry-After", "1")
			}
			fallthrough
		default:
			http.Error(w, "busy", st)
		}
	}))
	t.Cleanup(sh.Close)
	rt, fts := serveRouter(t, Config{Shards: []string{sh.URL}},
		policy{attemptTimeout: time.Second, retryBackoff: time.Microsecond, maxPasses: 1})
	state := rt.shards[normalizeAddr(sh.URL)]

	for _, c := range []struct {
		status int
		path   string
		up     bool
	}{
		{http.StatusTooManyRequests, "/pair?i=1&j=2", true},
		{http.StatusServiceUnavailable, "/pair?i=1&j=2&backend=lin", true},
		{http.StatusGatewayTimeout, "/pair?i=1&j=2", true},
		{http.StatusServiceUnavailable, "/pair?i=1&j=2", false},
		{http.StatusTooManyRequests, "/pair?i=1&j=2", false},
		{http.StatusServiceUnavailable, "/pair?i=1&j=2&backend=lin", false},
		{http.StatusGatewayTimeout, "/pair?i=1&j=2", false},
		{http.StatusOK, "/pair?i=1&j=2", true},
	} {
		status.Store(int64(c.status))
		want := http.StatusBadGateway
		if c.status == http.StatusOK {
			want = http.StatusOK
		}
		oracle.Get(t, fts.Client(), fts.URL+c.path, want, nil)
		if got := state.up.Load(); got != c.up {
			t.Fatalf("after a %d on %s: up = %v, want %v", c.status, c.path, got, c.up)
		}
	}
}

// TestMaintenanceRefusalDemotesNothing: a shard started without
// -dynamic refuses POST /edges with a plain 503, yet serves queries, so
// the fan-out's failure leaves it up; an unreachable shard still goes
// down.
func TestMaintenanceRefusalDemotesNothing(t *testing.T) {
	sh := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "dynamic updates disabled", http.StatusServiceUnavailable)
	}))
	t.Cleanup(sh.Close)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	rt, fts := serveRouter(t, Config{Shards: []string{sh.URL, dead.URL}},
		policy{attemptTimeout: time.Second, retryBackoff: time.Millisecond, maxPasses: 3})

	resp, err := http.Post(fts.URL+"/edges", "application/json", strings.NewReader(`{"insert":[[1,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("/edges: status %d, want %d", resp.StatusCode, http.StatusBadGateway)
	}
	if !rt.shards[normalizeAddr(sh.URL)].up.Load() {
		t.Fatal("a shard refusing /edges with 503 was marked down")
	}
	if rt.shards[normalizeAddr(dead.URL)].up.Load() {
		t.Fatal("an unreachable shard stayed up after a failed /edges")
	}
}

// TestHedgedRequestWinsAgainstSlowReplica: with the primary replica
// stalling, the hedge fires after the configured delay, the secondary's
// answer is served, and the slow request is abandoned without marking
// its shard down.
func TestHedgedRequestWinsAgainstSlowReplica(t *testing.T) {
	const pairJSON = `{"i":1,"j":2,"score":0.5,"cached":false,"gen":0}`
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(400 * time.Millisecond)
		w.Write([]byte(pairJSON))
	}))
	t.Cleanup(slow.Close)
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(pairJSON))
	}))
	t.Cleanup(fast.Close)
	rt, err := newRouter(Config{Shards: []string{slow.URL, fast.URL}, HedgeDelay: 20 * time.Millisecond},
		policy{attemptTimeout: 5 * time.Second, retryBackoff: time.Millisecond, maxPasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	order := []*shardState{rt.shards[normalizeAddr(slow.URL)], rt.shards[normalizeAddr(fast.URL)]}
	start := time.Now()
	rep, err := rt.askHedged(context.Background(), order,
		&query{method: http.MethodGet, path: "/pair?i=1&j=2", validate: valid(decodePairBody)}, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("hedged ask failed: %v", err)
	}
	if rep.shard != order[1] {
		t.Fatalf("answer came from %s, want the hedged fast replica", rep.shard.addr)
	}
	if el := time.Since(start); el > 300*time.Millisecond {
		t.Fatalf("hedged request took %v — waited out the slow primary", el)
	}
	st := rt.StatsSnapshot()
	if st.HedgesWon != 1 {
		t.Fatalf("hedges_won = %d, want 1", st.HedgesWon)
	}
	// A hedge costs exactly one token, for its first attempt, and the
	// answer refills 0.1: 10 → 9.1. Its first attempt answered, so it is
	// not a failover.
	if math.Abs(st.RetryTokens-9.1) > 1e-9 {
		t.Fatalf("retry tokens = %v after one won hedge from a full bucket of 10, want 9.1", st.RetryTokens)
	}
	if st.Failovers != 0 {
		t.Fatalf("failovers = %d after a hedge won on its first attempt, want 0", st.Failovers)
	}
	// The abandoned primary must not be penalized: its attempt died from
	// OUR cancellation, not a shard fault.
	if !order[0].up.Load() {
		t.Fatal("cancelled hedge loser marked the slow shard down")
	}
}

// TestHedgesLeaveFailoversHalfTheBudget: hedges spend only the upper half
// of the retry bucket. Ten hedged requests against a stalling primary
// launch five hedges (10 → 5 tokens, no refills) and then stop, so a
// later request whose owner answers 500 still gets its failover token.
func TestHedgesLeaveFailoversHalfTheBudget(t *testing.T) {
	const pairJSON = `{"i":1,"j":2,"score":0.5,"cached":false,"gen":0}`
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(100 * time.Millisecond):
			w.Write([]byte(pairJSON))
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(slow.Close)
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(pairJSON))
	}))
	t.Cleanup(fast.Close)
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "injected", http.StatusInternalServerError)
	}))
	t.Cleanup(failing.Close)
	const delay = 5 * time.Millisecond
	rt, err := newRouter(Config{Shards: []string{slow.URL, fast.URL, failing.URL}, HedgeDelay: delay},
		policy{attemptTimeout: 5 * time.Second, retryBackoff: time.Millisecond, maxPasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rt.budget.ratio = 0 // no refills: tokens only drain
	shard := func(ts *httptest.Server) *shardState { return rt.shards[normalizeAddr(ts.URL)] }
	q := &query{method: http.MethodGet, path: "/pair?i=1&j=2", validate: valid(decodePairBody)}

	for i := 0; i < 10; i++ {
		if _, err := rt.askHedged(context.Background(), []*shardState{shard(slow), shard(fast)}, q, delay); err != nil {
			t.Fatalf("hedged ask %d: %v", i, err)
		}
	}
	if st := rt.StatsSnapshot(); st.HedgesWon+st.HedgesLost != 5 || st.RetryTokens != 5 {
		t.Fatalf("10 hedged asks from a full bucket of 10: %d hedges, %v tokens left; want 5 and 5",
			st.HedgesWon+st.HedgesLost, st.RetryTokens)
	}
	rep, err := rt.askHedged(context.Background(), []*shardState{shard(failing), shard(fast)}, q, delay)
	if err != nil {
		t.Fatalf("failover after a 500 refused once hedges had spent their half: %v", err)
	}
	if rep.shard != shard(fast) {
		t.Fatalf("answer came from %s, want the failover replica", rep.shard.addr)
	}
	if st := rt.StatsSnapshot(); st.Failovers != 1 || st.RetryTokens != 4 {
		t.Fatalf("failovers = %d, tokens = %v; want 1 and 4", st.Failovers, st.RetryTokens)
	}
}

// TestHedgingDisabledByDefault: a router built without a HedgeDelay
// waits out a slow owner and sends no second attempt.
func TestHedgingDisabledByDefault(t *testing.T) {
	var slowServed, fastServed atomic.Int64
	const pairJSON = `{"i":1,"j":2,"score":0.5,"cached":false,"gen":0}`
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slowServed.Add(1)
		time.Sleep(50 * time.Millisecond)
		w.Write([]byte(pairJSON))
	}))
	t.Cleanup(slow.Close)
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fastServed.Add(1)
		w.Write([]byte(pairJSON))
	}))
	t.Cleanup(fast.Close)
	rt, err := newRouter(Config{Shards: []string{slow.URL, fast.URL}}, quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	// A key the slow shard owns, so a hedge would have had 50ms to fire.
	key := ""
	for j := 2; key == ""; j++ {
		if k := PairKey(core.CanonicalPair(1, j)); rt.ring.Owner(k) == normalizeAddr(slow.URL) {
			key = k
		}
	}
	q := &query{key: key, method: http.MethodGet, path: "/pair?i=1&j=2", validate: valid(decodePairBody)}
	if _, err := rt.askReplicas(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if st := rt.StatsSnapshot(); st.HedgesWon+st.HedgesLost != 0 || slowServed.Load()+fastServed.Load() != 1 {
		t.Fatalf("default router hedged: won %d, lost %d, %d attempts", st.HedgesWon, st.HedgesLost, slowServed.Load()+fastServed.Load())
	}
}

// TestRefreshSkipsDeadShardAndProberCatchesUp: a dead shard no longer
// stalls the rolling refresh — it is skipped, reported, and refreshed by
// the prober's recovery path once it answers again.
func TestRefreshSkipsDeadShardAndProberCatchesUp(t *testing.T) {
	alive1, alive2 := newFakeShard(t), newFakeShard(t)
	dead := newFakeShard(t)
	rt, fts := newFleet(t, alive1.ts.URL, alive2.ts.URL, dead.ts.URL)
	deadAddr := normalizeAddr(dead.ts.URL)
	dead.ts.Close()

	var rr refreshFleetResponse
	oracle.Post(t, fts.Client(), fts.URL+"/refresh", "", http.StatusOK, &rr)
	if rr.Rolled != 2 {
		t.Fatalf("rolled %d shards, want 2 survivors", rr.Rolled)
	}
	if len(rr.Skipped) != 1 || rr.Skipped[0] != deadAddr {
		t.Fatalf("skipped = %v, want [%s]", rr.Skipped, deadAddr)
	}
	if alive1.refreshes.Load() == 0 || alive2.refreshes.Load() == 0 {
		t.Fatal("surviving shards were not refreshed")
	}

	// "Restart" the dead shard at a NEW address and simulate the prober
	// finding it: the pending mark must trigger a catch-up refresh.
	revived := newFakeShard(t)
	revivedAddr := normalizeAddr(revived.ts.URL)
	rt.mu.Lock()
	rt.ring = rt.ring.WithoutMember(deadAddr).WithMember(revivedAddr)
	delete(rt.shards, deadAddr)
	rt.shards[revivedAddr] = rt.newShardState(revivedAddr)
	rt.mu.Unlock()
	rt.takePendingRefresh(deadAddr) // mirrors /leave: departed members owe no refresh
	rt.markPendingRefresh(revivedAddr)

	rt.probeShard(rt.shards[revivedAddr])
	deadline := time.Now().Add(5 * time.Second)
	for revived.refreshes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("prober recovery never re-triggered the skipped refresh")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rt.pendingMu.Lock()
	pending := len(rt.pendingRefresh)
	rt.pendingMu.Unlock()
	if pending != 0 {
		t.Fatalf("%d shards still pending refresh after catch-up", pending)
	}
}

// TestRefreshAllShardsDead: a roll that reaches nobody is an error, not
// an empty success.
func TestRefreshAllShardsDead(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	_, fts := newFleet(t, a.ts.URL, b.ts.URL)
	a.ts.Close()
	b.ts.Close()
	oracle.Post(t, fts.Client(), fts.URL+"/refresh", "", http.StatusBadGateway, nil)
}

// TestRouterDeadlines: malformed deadlines reject 400; already-expired
// deadlines answer 504 without consulting any shard; the deadline is
// forwarded to shards as an absolute header.
func TestRouterDeadlines(t *testing.T) {
	var sawDeadline atomic.Pointer[string]
	sh := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := r.Header.Get("X-Cloudwalker-Deadline"); h != "" {
			sawDeadline.Store(&h)
		}
		w.Write([]byte(`{"i":1,"j":2,"score":0.5,"cached":false,"gen":0}`))
	}))
	t.Cleanup(sh.Close)
	rt, fts := newFleet(t, sh.URL)

	var e server.ErrorBody
	oracle.Get(t, fts.Client(), fts.URL+"/pair?i=1&j=2&timeout=banana", http.StatusBadRequest, &e)
	if !strings.Contains(e.Error, "timeout") {
		t.Fatalf("malformed timeout error = %q", e.Error)
	}

	req, _ := http.NewRequest(http.MethodGet, fts.URL+"/pair?i=1&j=2", nil)
	req.Header.Set("X-Cloudwalker-Deadline", "1") // 1970: long expired
	resp, err := fts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d, want 504", resp.StatusCode)
	}
	if rt.StatsSnapshot().DeadlineExceeded == 0 {
		t.Fatal("expired deadline not counted")
	}

	// A live deadline reaches the shard as an absolute header.
	var pb pairBody
	oracle.Get(t, fts.Client(), fts.URL+"/pair?i=1&j=2&timeout=30s", http.StatusOK, &pb)
	if sawDeadline.Load() == nil {
		t.Fatal("deadline was not forwarded to the shard")
	}
}

// TestRouterForwardsQueryParams: backend= (and any other parameter)
// survives the router on /pair and /source — regression for the router
// previously rebuilding query strings from scratch. allow_partial=1,
// which clients of the old partial answers send, is stripped and
// ignored: the answer is whole, with no degraded field.
func TestRouterForwardsQueryParams(t *testing.T) {
	sh := newShard(t, "a")
	_, fts := newFleet(t, sh.URL)
	var whole map[string]any
	oracle.Get(t, sh.Client(), sh.URL+"/source?node=3&k=5", http.StatusOK, &whole)
	for _, c := range []struct {
		path    string
		status  int
		backend string // the X-Cloudwalker-Backend a 200 must carry
	}{
		{"/pair?i=1&j=2&backend=mc", http.StatusOK, "mc"},
		// backend=lin without a lin engine: the shard's authoritative
		// 400 relays verbatim.
		{"/pair?i=1&j=2&backend=lin", http.StatusBadRequest, ""},
		{"/source?node=3&k=5&allow_partial=1", http.StatusOK, "mc"},
	} {
		var body map[string]any
		hdr := oracle.Get(t, fts.Client(), fts.URL+c.path, c.status, &body)
		if c.status != http.StatusOK {
			if body["error"] == "" || body["error"] == nil {
				t.Fatalf("%s: the shard's refusal lost its body in relay", c.path)
			}
			continue
		}
		if got := hdr.Get(server.BackendHeader); got != c.backend {
			t.Fatalf("%s: backend header = %q through the router, want %s", c.path, got, c.backend)
		}
		if _, ok := body["degraded"]; ok {
			t.Fatalf("%s: answer carries a degraded field: %v", c.path, body)
		}
		if strings.HasPrefix(c.path, "/source") && fmt.Sprint(body["results"]) != fmt.Sprint(whole["results"]) {
			t.Fatalf("%s: results %v, want the whole answer %v", c.path, body["results"], whole["results"])
		}
	}
}
