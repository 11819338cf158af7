package e2etest

// Chaos end-to-end suite: real cloudwalkerd processes, a real router,
// and a chaos proxy (internal/chaos) squatting between the router and
// one shard, injuring live traffic at the transport level. Every
// TestChaos* function runs in CI's dedicated chaos-e2e job (the plain
// fleet-e2e job skips them with -skip '^TestChaos'); both run under
// -race, so the resilience paths are exercised with the detector on.
//
// Timing note: one failed attempt, or one failed probe of the router's
// health prober (500ms period), demotes a shard, after which fresh
// traffic prefers healthy replicas and tries the injured one only as a
// last resort, until a live probe restores it. Scenarios therefore
// assert on what the first failures do (a demotion in /healthz, green
// answers through failover), not on sustained traffic through the
// injured shard.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudwalker/internal/chaos"
)

// chaosHealthz is the router /healthz slice the chaos tests care about:
// per-shard liveness and generation.
type chaosHealthz struct {
	Shards []struct {
		Addr string `json:"addr"`
		Up   bool   `json:"up"`
		Gen  uint64 `json:"gen"`
	} `json:"shards"`
}

// chaosStats is the router /stats slice the chaos tests assert on.
type chaosStats struct {
	HedgesWon       uint64 `json:"hedges_won"`
	HedgesLost      uint64 `json:"hedges_lost"`
	Failovers       uint64 `json:"failovers"`
	BudgetExhausted uint64 `json:"retry_budget_exhausted"`
}

// partialResp is a /source answer plus the degraded flag the router's
// removed partial answers carried; the generation test asserts it never
// returns.
type partialResp struct {
	Node     int        `json:"node"`
	Gen      uint64     `json:"gen"`
	Degraded bool       `json:"degraded"`
	Results  []neighbor `json:"results"`
}

// startChaosFleet launches n shard daemons and a router, with shard 0
// reached only through a chaos proxy owned by the given injector. Extra
// router flags (hedging, retry budget, ...) ride in routerArgs.
func startChaosFleet(t *testing.T, n int, dynamic bool, in *chaos.Injector, routerArgs ...string) (router *daemon, shards []*daemon, proxy *chaos.Proxy) {
	t.Helper()
	shards = make([]*daemon, n)
	addrs := make([]string, n)
	for i := range shards {
		name := fmt.Sprintf("shard-%c", 'a'+i)
		shards[i] = startDaemon(t, name, shardArgs(name, dynamic)...)
		addrs[i] = shards[i].addr
	}
	var err error
	proxy, err = chaos.NewProxy(in, "http://"+shards[0].addr)
	if err != nil {
		t.Fatalf("chaos proxy: %v", err)
	}
	t.Cleanup(func() { proxy.Close() })
	addrs[0] = proxy.Addr()
	args := append([]string{"-router", "-shards", strings.Join(addrs, ",")}, routerArgs...)
	router = startDaemon(t, "router", args...)
	waitHealthy(t, router.base(), n)
	return router, shards, proxy
}

// routerHealth fetches the router's /healthz regardless of status code
// (a degraded fleet answers 200 or 503; both carry the shard list).
func routerHealth(t *testing.T, base string) chaosHealthz {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var hz chaosHealthz
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatalf("decoding /healthz: %v", err)
	}
	return hz
}

// upOf reports whether /healthz lists addr as up (false when absent).
func upOf(hz chaosHealthz, addr string) bool {
	for _, sh := range hz.Shards {
		if sh.Addr == addr {
			return sh.Up
		}
	}
	return false
}

// getStatus fetches path and returns only the status code (0 = transport
// error), draining the body so connections are reused.
func getStatus(base, path string) int {
	resp, err := http.Get(base + path)
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

// getInto fetches path, decodes a JSON body into v, and returns the
// status code and response headers (0, nil on transport/decode failure).
func getInto(base, path string, v any) (int, http.Header) {
	resp, err := http.Get(base + path)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return 0, nil
	}
	return resp.StatusCode, resp.Header
}

// TestChaosBrownoutBoundedErrors is the headline resilience scenario
// from the issue: one of three replicas browns out (500ms added latency
// + 20% injected errors) and the client-visible error rate must stay
// bounded — failover and the retry budget absorb the brownout instead
// of amplifying it. Clearing the fault restores a fully green fleet.
func TestChaosBrownoutBoundedErrors(t *testing.T) {
	in := chaos.NewInjector(42)
	router, _, _ := startChaosFleet(t, 3, false, in)

	query := func(i int) int {
		return getStatus(router.base(), fmt.Sprintf("/pair?i=%d&j=%d", i, (i+7)%120))
	}

	// Baseline: all replicas healthy, everything answers.
	for i := 0; i < 10; i++ {
		if st := query(i); st != http.StatusOK {
			t.Fatalf("healthy fleet: query %d got status %d", i, st)
		}
	}

	// Brownout: shard a turns slow and flaky behind the proxy.
	in.Set(chaos.Fault{Latency: 500 * time.Millisecond, Jitter: 100 * time.Millisecond, ErrorRate: 0.2})
	const total = 45
	errs := 0
	for i := 0; i < total; i++ {
		if st := query(i); st != http.StatusOK {
			errs++
		}
	}
	// Roughly a third of the keys route to the browned-out replica and a
	// fifth of those attempts are injured (~7% of traffic); failover must
	// hold the client-visible rate well under that. The bound we enforce
	// is 10% — generous enough to be timing-proof under -race.
	if errs*10 > total {
		t.Fatalf("brownout leaked %d/%d client errors, want <= 10%%", errs, total)
	}

	// Recovery: clear the fault, the fleet is green again.
	in.Set(chaos.Fault{})
	waitHealthy(t, router.base(), 3)
	for i := 0; i < 10; i++ {
		if st := query(i); st != http.StatusOK {
			t.Fatalf("recovered fleet: query %d got status %d", i, st)
		}
	}
}

// TestChaosBreakerOpensAndRecloses drives a shard's liveness through
// demote and restore from outside the process: a shard answering every
// request 500 is demoted by the first failed attempt or probe (up false
// in the router's /healthz) while answers stay green through failover,
// and once the fault clears, the health prober restores it and traffic
// returns.
func TestChaosBreakerOpensAndRecloses(t *testing.T) {
	in := chaos.NewInjector(7)
	router, _, proxy := startChaosFleet(t, 3, false, in)

	// Every request through the proxy, probes included, now fails fast
	// with a canned 500.
	in.Set(chaos.Fault{ErrorRate: 1})
	// Spread keys so several pick the injured replica as primary; every
	// answer stays green through failover.
	for i := 0; i < 24; i++ {
		var pr pairResp
		getJSON(t, router.base(), fmt.Sprintf("/pair?i=%d&j=%d", i*5%120, (i*5+1)%120), http.StatusOK, &pr)
	}
	if hz := routerHealth(t, router.base()); upOf(hz, proxy.Addr()) {
		t.Fatalf("failing shard still up; healthz: %+v", hz)
	}

	// Clear the fault: the prober must restore the shard.
	in.Set(chaos.Fault{})
	ok := waitFor(time.Now().Add(30*time.Second), func() bool {
		return upOf(routerHealth(t, router.base()), proxy.Addr())
	})
	if !ok {
		t.Fatalf("shard never restored; healthz: %+v", routerHealth(t, router.base()))
	}
	waitHealthy(t, router.base(), 3)
	var pr pairResp
	getJSON(t, router.base(), "/pair?i=3&j=4", http.StatusOK, &pr)
}

// TestChaosHedgeWinsAgainstSlowReplica: with hedging enabled and one
// replica 400ms slow, tail requests must be rescued by the hedge to a
// fast replica — the router's hedges_won counter proves the backup
// answered first, and every response stays green.
func TestChaosHedgeWinsAgainstSlowReplica(t *testing.T) {
	in := chaos.NewInjector(99)
	router, _, _ := startChaosFleet(t, 3, false, in,
		"-hedge", "25ms")

	// Pure latency: probes still succeed (well under the attempt
	// timeout), so the slow replica keeps taking primary traffic.
	in.Set(chaos.Fault{Latency: 400 * time.Millisecond})
	start := time.Now()
	for i := 0; i < 30; i++ {
		var pr pairResp
		getJSON(t, router.base(), fmt.Sprintf("/pair?i=%d&j=%d", i, (i+31)%120), http.StatusOK, &pr)
	}
	elapsed := time.Since(start)

	var st chaosStats
	getJSON(t, router.base(), "/stats", http.StatusOK, &st)
	if st.HedgesWon == 0 {
		t.Fatalf("no hedge ever won against the slow replica (elapsed %v, stats %+v)", elapsed, st)
	}
	// ~10 of 30 keys route to the slow replica; unhedged that is ~4s of
	// added latency. Hedges cap each such request near the 25ms delay;
	// the generous bound still proves hedging cut the tail.
	if elapsed > 6*time.Second {
		t.Fatalf("30 hedged queries took %v — hedging did not rescue the tail", elapsed)
	}
}

// TestChaosNoTornGenerationUnderFaults: rolling refreshes while the
// chaos proxy tears responses (truncation + connection resets) on one
// shard's path. Torn bodies must surface as decode failures and
// retries, never as corrupt answers — every successful response is a
// pure, well-formed snapshot answer, and per client the observed
// generation never moves backwards.
func TestChaosNoTornGenerationUnderFaults(t *testing.T) {
	in := chaos.NewInjector(1234)
	router, _, _ := startChaosFleet(t, 3, true, in)

	var base partialResp
	getJSON(t, router.base(), "/source?node=5&k=10", http.StatusOK, &base)

	in.Set(chaos.Fault{TruncateRate: 0.3, ResetRate: 0.1})

	// Background clients hammer /source while the fleet rolls; each
	// records the generations of its successful, fully-decoded answers.
	// (Per-client monotonicity is the guarantee: one client's requests
	// are sequential, and the router's generation floor refuses any
	// answer below a generation it has already relayed.)
	const workers = 2
	stop := make(chan struct{})
	var wg sync.WaitGroup
	gens := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var got partialResp
				st, _ := getInto(router.base(), fmt.Sprintf("/source?node=%d&k=10", (w*17+i)%120), &got)
				if st != http.StatusOK {
					continue // clean failure: allowed under chaos
				}
				if got.Degraded {
					// Without allow_partial the router must never degrade.
					gens[w] = append(gens[w], ^uint64(0))
					return
				}
				gens[w] = append(gens[w], got.Gen)
			}
		}(w)
	}

	// Two rounds of edits + rolling refresh through the faulted path.
	// /edges is idempotent, so a torn broadcast is retried verbatim.
	edits := []string{`{"insert":[[1,5],[2,5]]}`, `{"insert":[[3,5],[4,5]]}`}
	var lastGen uint64
	for _, body := range edits {
		applied := false
		for attempt := 0; attempt < 30 && !applied; attempt++ {
			resp, err := http.Post(router.base()+"/edges", "application/json", strings.NewReader(body))
			if err != nil {
				continue
			}
			var er struct {
				Gen uint64 `json:"gen"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && derr == nil {
				lastGen = er.Gen
				applied = true
			}
		}
		if !applied {
			t.Fatal("edge batch never applied through the chaos path")
		}
		resp, err := http.Post(router.base()+"/refresh", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() // skipped shards are fine; the prober catches them up
	}

	close(stop)
	wg.Wait()

	total := 0
	for w, g := range gens {
		total += len(g)
		for i, v := range g {
			if v == ^uint64(0) {
				t.Fatalf("worker %d received a degraded answer without opting in", w)
			}
			if i > 0 && v < g[i-1] {
				t.Fatalf("worker %d saw generation move backwards: %d after %d", w, v, g[i-1])
			}
		}
	}
	if total == 0 {
		t.Fatal("no successful responses observed under chaos")
	}

	// Clear the chaos; the prober replays any skipped refresh and the
	// whole fleet converges on the final generation.
	in.Set(chaos.Fault{})
	ok := waitFor(time.Now().Add(60*time.Second), func() bool {
		hz := routerHealth(t, router.base())
		if len(hz.Shards) != 3 {
			return false
		}
		for _, sh := range hz.Shards {
			if !sh.Up || sh.Gen != lastGen {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatalf("fleet never converged on gen %d; healthz: %+v", lastGen, routerHealth(t, router.base()))
	}
	var final partialResp
	getJSON(t, router.base(), "/source?node=5&k=10", http.StatusOK, &final)
	if final.Gen != lastGen || final.Degraded {
		t.Fatalf("final answer gen %d degraded=%v, want authoritative gen %d", final.Gen, final.Degraded, lastGen)
	}
}
