package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"cloudwalker/internal/core"
	"cloudwalker/internal/gen"
)

// testQuerier builds a small deterministic graph + index once; the suite
// shares it (queriers are read-only and safe for concurrent use).
var (
	tqOnce sync.Once
	tq     *core.Querier
)

func querier(t *testing.T) *core.Querier {
	t.Helper()
	tqOnce.Do(func() {
		g, err := gen.RMAT(300, 2400, gen.DefaultRMAT, 11)
		if err != nil {
			panic(err)
		}
		opts := core.DefaultOptions()
		opts.T = 5
		opts.R = 40
		opts.RPrime = 300
		idx, _, err := core.BuildIndex(g, opts)
		if err != nil {
			panic(err)
		}
		tq, err = core.NewQuerier(g, idx)
		if err != nil {
			panic(err)
		}
	})
	return tq
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(querier(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// getJSON fetches a path, requires the given status, and decodes into v.
func getJSON(t *testing.T, ts *httptest.Server, path string, wantStatus int, v any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d; body %s", path, resp.StatusCode, wantStatus, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content type %q, want application/json", path, ct)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: decoding %s: %v", path, body, err)
		}
	}
}

func TestPairEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var first pairResponse
	getJSON(t, ts, "/pair?i=10&j=11", http.StatusOK, &first)
	if first.Cached {
		t.Fatal("first query reported cached")
	}
	if first.Score < 0 || first.Score > 1 {
		t.Fatalf("score %g outside [0,1]", first.Score)
	}

	// The repeat must be a hit with a bit-identical score.
	var hit pairResponse
	getJSON(t, ts, "/pair?i=10&j=11", http.StatusOK, &hit)
	if !hit.Cached {
		t.Fatal("repeat query missed the cache")
	}
	if hit.Score != first.Score {
		t.Fatalf("cache hit score %v != miss score %v", hit.Score, first.Score)
	}

	// SimRank is symmetric: the reversed pair shares the cache entry.
	var rev pairResponse
	getJSON(t, ts, "/pair?i=11&j=10", http.StatusOK, &rev)
	if !rev.Cached || rev.Score != first.Score {
		t.Fatalf("reversed pair: cached=%v score=%v, want hit with score %v",
			rev.Cached, rev.Score, first.Score)
	}

	// Self-pair is 1 by definition.
	var self pairResponse
	getJSON(t, ts, "/pair?i=7&j=7", http.StatusOK, &self)
	if self.Score != 1 {
		t.Fatalf("s(7,7) = %v, want 1", self.Score)
	}
}

func TestPairsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Seed the cache with one pair so the batch sees a mixed hit/miss set.
	var single pairResponse
	getJSON(t, ts, "/pair?i=3&j=4", http.StatusOK, &single)

	body := `{"pairs":[[3,4],[5,6],[9,9]]}`
	resp, err := ts.Client().Post(ts.URL+"/pairs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	var got pairsResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(got.Scores) != 3 {
		t.Fatalf("got %d scores, want 3", len(got.Scores))
	}
	if got.Scores[0] != single.Score {
		t.Fatalf("batch score %v != point score %v for the same pair", got.Scores[0], single.Score)
	}
	if got.Scores[2] != 1 {
		t.Fatalf("self pair scored %v, want 1", got.Scores[2])
	}
	if got.Hits != 1 {
		t.Fatalf("cache_hits = %d, want 1", got.Hits)
	}

	// Point queries must agree bit-for-bit with the batch's fills.
	var after pairResponse
	getJSON(t, ts, "/pair?i=6&j=5", http.StatusOK, &after)
	if !after.Cached || after.Score != got.Scores[1] {
		t.Fatalf("point after batch: cached=%v score=%v, want hit with %v",
			after.Cached, after.Score, got.Scores[1])
	}
}

// TestPairsBatchDedupes: repeated canonical pairs in one batch (same
// order, flipped order) run one estimate, fanned out to every index.
func TestPairsBatchDedupes(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheSize: -1})
	var mu sync.Mutex
	var keys []string
	srv.testComputeHook = func(_ context.Context, key string) {
		mu.Lock()
		keys = append(keys, key)
		mu.Unlock()
	}
	var got pairsResponse
	postJSON(t, ts, "/pairs", `{"pairs":[[20,21],[21,20],[20,21],[22,23]]}`, http.StatusOK, &got)
	if len(got.Scores) != 4 {
		t.Fatalf("%d scores, want 4", len(got.Scores))
	}
	if got.Scores[0] != got.Scores[1] || got.Scores[0] != got.Scores[2] {
		t.Fatalf("duplicate pairs scored differently: %v", got.Scores)
	}
	// 4 request entries, 2 distinct canonical pairs → 2 computations.
	sort.Strings(keys)
	if len(keys) != 2 || keys[0] != "g0/p/20/21" || keys[1] != "g0/p/22/23" {
		t.Fatalf("computed %v, want [g0/p/20/21 g0/p/22/23]", keys)
	}
}

func TestSourceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var got sourceResponse
	getJSON(t, ts, "/source?node=12&k=5", http.StatusOK, &got)
	if got.K != 5 || got.Node != 12 || got.Backend != BackendMC || got.Cached {
		t.Fatalf("echoed query mismatch: %+v", got)
	}
	if len(got.Results) > 5 {
		t.Fatalf("%d results exceed k=5", len(got.Results))
	}
	for i, nb := range got.Results {
		if nb.Node == 12 {
			t.Fatal("source node listed among its own neighbors")
		}
		if i > 0 && nb.Score > got.Results[i-1].Score {
			t.Fatalf("results not sorted descending at %d", i)
		}
	}
	var again sourceResponse
	getJSON(t, ts, "/source?node=12&k=5", http.StatusOK, &again)
	if !again.Cached {
		t.Fatal("repeat single-source query missed the cache")
	}
	for i := range got.Results {
		if again.Results[i] != got.Results[i] {
			t.Fatalf("cached result differs at %d: %+v vs %+v", i, again.Results[i], got.Results[i])
		}
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var hz healthzResponse
	getJSON(t, ts, "/healthz", http.StatusOK, &hz)
	if hz.Status != "ok" || hz.Nodes != querier(t).Graph().NumNodes() {
		t.Fatalf("healthz = %+v", hz)
	}

	getJSON(t, ts, "/pair?i=1&j=2", http.StatusOK, nil)
	getJSON(t, ts, "/pair?i=1&j=2", http.StatusOK, nil)
	var st Stats
	getJSON(t, ts, "/stats", http.StatusOK, &st)
	if st.Cache == nil || st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}
	if st.Computations != 1 {
		t.Fatalf("computations = %d, want 1", st.Computations)
	}
	lat, ok := st.Endpoints["/pair"]
	if !ok || lat.Count != 2 {
		t.Fatalf("endpoint latency stats = %+v", st.Endpoints)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 4})
	n := querier(t).Graph().NumNodes()
	cases := []struct {
		path   string
		status int
	}{
		{"/pair?i=0", http.StatusBadRequest},                         // missing j
		{"/pair?i=0&j=zap", http.StatusBadRequest},                   // non-integer
		{fmt.Sprintf("/pair?i=0&j=%d", n), http.StatusBadRequest},    // out of range
		{"/pair?i=-1&j=0", http.StatusBadRequest},                    // negative
		{"/source?node=0&mode=pull", http.StatusBadRequest},          // retired selector
		{"/source?node=0&mode=walk", http.StatusBadRequest},          // retired selector
		{"/source?node=0&k=-3", http.StatusBadRequest},               // bad k
		{fmt.Sprintf("/source?node=%d", n+5), http.StatusBadRequest}, // out of range
		{"/pairs", http.StatusMethodNotAllowed},                      // GET on POST route
	}
	for _, tc := range cases {
		var eb ErrorBody
		getJSON(t, ts, tc.path, tc.status, &eb)
		if eb.Error == "" {
			t.Fatalf("%s: error body missing", tc.path)
		}
	}

	post := func(body string) (int, ErrorBody) {
		resp, err := ts.Client().Post(ts.URL+"/pairs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb ErrorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		return resp.StatusCode, eb
	}
	for _, body := range []string{
		"{not json",
		`{"pairs":[]}`,
		`{"pairs":[[0,1],[0,2],[0,3],[0,4],[0,5]]}`, // exceeds MaxBatch=4
		fmt.Sprintf(`{"pairs":[[0,%d]]}`, n),        // out of range
	} {
		status, eb := post(body)
		if status != http.StatusBadRequest || eb.Error == "" {
			t.Fatalf("POST %s: status %d body %+v, want 400 with error", body, status, eb)
		}
	}
}

// TestCoalescing holds the underlying single-source computation open
// while a herd of identical requests arrives, then releases it: exactly
// one Monte Carlo estimate must run, and every response must carry the
// same scores.
func TestCoalescing(t *testing.T) {
	const herd = 8
	// Admission control off: the whole herd must be admitted so it can
	// pile onto one flight (the gate's own behavior is TestShedding's).
	srv, ts := newTestServer(t, Config{MaxInFlight: -1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var hookOnce, releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
	srv.testComputeHook = func(context.Context, string) {
		hookOnce.Do(func() { close(entered) })
		<-release
	}

	var wg sync.WaitGroup
	responses := make([]sourceResponse, herd)
	errs := make([]error, herd)
	for c := 0; c < herd; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + "/source?node=33&k=5")
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[c] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[c] = json.NewDecoder(resp.Body).Decode(&responses[c])
		}(c)
	}

	<-entered
	// Wait until every other request has joined the executor's flight
	// (nothing is cached while it blocks, so they all must), then release
	// the one computation.
	deadline := time.Now().Add(5 * time.Second)
	for srv.flight.pendingWaiters("g0/s/mc/5/33") < herd-1 {
		if time.Now().After(deadline) {
			t.Fatalf("herd never assembled: %d waiters",
				srv.flight.pendingWaiters("g0/s/mc/5/33"))
		}
		time.Sleep(time.Millisecond)
	}
	releaseOnce.Do(func() { close(release) })
	wg.Wait()

	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	if got := srv.computes.Value(); got != 1 {
		t.Fatalf("herd of %d triggered %d computations, want 1", herd, got)
	}
	if got := srv.coalesced.Value(); got != herd-1 {
		t.Fatalf("coalesced = %d, want %d", got, herd-1)
	}
	for c := 1; c < herd; c++ {
		if len(responses[c].Results) != len(responses[0].Results) {
			t.Fatalf("client %d got %d results, client 0 got %d",
				c, len(responses[c].Results), len(responses[0].Results))
		}
		for i := range responses[c].Results {
			if responses[c].Results[i] != responses[0].Results[i] {
				t.Fatalf("client %d result %d differs", c, i)
			}
		}
	}
}

// TestShedding saturates a MaxInFlight=1 server with one blocked request
// and checks that the next request is shed with 429 while /stats (which
// bypasses the gate) still answers and counts the shed.
func TestShedding(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var hookOnce, releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
	srv.testComputeHook = func(context.Context, string) {
		hookOnce.Do(func() { close(entered) })
		<-release
	}

	done := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/pair?i=1&j=2")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("blocked request finished with status %d", resp.StatusCode)
			}
		}
		done <- err
	}()
	<-entered

	var eb ErrorBody
	getJSON(t, ts, "/pair?i=5&j=6", http.StatusTooManyRequests, &eb)
	if eb.Error == "" {
		t.Fatal("shed response missing error body")
	}

	var st Stats
	getJSON(t, ts, "/stats", http.StatusOK, &st)
	if st.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", st.Shed)
	}
	if st.InFlight != 1 {
		t.Fatalf("in_flight = %d, want 1", st.InFlight)
	}

	releaseOnce.Do(func() { close(release) })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	q := querier(t)
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil querier accepted")
	}
	if _, err := New(q, Config{MaxBatch: -1}); err == nil {
		t.Fatal("negative max batch accepted")
	}
}

// TestCacheDisabled checks the uncached arm used by the serving
// benchmark: every request recomputes, none report cached.
func TestCacheDisabled(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheSize: -1})
	var a, b pairResponse
	getJSON(t, ts, "/pair?i=1&j=2", http.StatusOK, &a)
	getJSON(t, ts, "/pair?i=1&j=2", http.StatusOK, &b)
	if a.Cached || b.Cached {
		t.Fatal("cache-disabled server reported a cache hit")
	}
	if a.Score != b.Score {
		t.Fatalf("deterministic estimator returned %v then %v", a.Score, b.Score)
	}
	if got := srv.computes.Value(); got != 2 {
		t.Fatalf("computations = %d, want 2", got)
	}
	var st Stats
	getJSON(t, ts, "/stats", http.StatusOK, &st)
	if st.Cache != nil {
		t.Fatal("stats reported cache counters with caching disabled")
	}
}

func TestPprofDisabledByDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without EnablePprof: status %d, want 404", resp.StatusCode)
	}
}

func TestPprofEnabled(t *testing.T) {
	_, ts := newTestServer(t, Config{EnablePprof: true})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/heap?debug=1"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestPairsBatchJoinsPointFlight pins the per-pair singleflight
// integration of POST /pairs: a batch containing a pair that a GET
// /pair is already computing must NOT recompute it — the batch computes
// only its fresh pairs and awaits the point query's flight for the
// shared one, and both answers are bit-identical.
func TestPairsBatchJoinsPointFlight(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: -1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var hookOnce, releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
	srv.testComputeHook = func(_ context.Context, key string) {
		// Hold only the point query's computation open; the batch's
		// fresh pair must run through.
		if key == "g0/p/20/21" {
			hookOnce.Do(func() { close(entered) })
			<-release
		}
	}

	var pointResp pairResponse
	var pointErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := ts.Client().Get(ts.URL + "/pair?i=20&j=21")
		if err != nil {
			pointErr = err
			return
		}
		defer resp.Body.Close()
		pointErr = json.NewDecoder(resp.Body).Decode(&pointResp)
	}()
	<-entered

	// The batch lists the in-flight pair in reversed order (canonical
	// form must still match the flight) plus one fresh pair.
	var batchResp pairsResponse
	var batchErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := ts.Client().Post(ts.URL+"/pairs", "application/json",
			bytes.NewBufferString(`{"pairs":[[21,20],[22,23]]}`))
		if err != nil {
			batchErr = err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			batchErr = fmt.Errorf("status %d", resp.StatusCode)
			return
		}
		batchErr = json.NewDecoder(resp.Body).Decode(&batchResp)
	}()

	// The batch must register as a waiter on the point query's flight
	// before we release it.
	deadline := time.Now().Add(5 * time.Second)
	for srv.flight.pendingWaiters("g0/p/20/21") < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("batch never joined the point flight: %d waiters",
				srv.flight.pendingWaiters("g0/p/20/21"))
		}
		time.Sleep(time.Millisecond)
	}
	releaseOnce.Do(func() { close(release) })
	wg.Wait()

	if pointErr != nil || batchErr != nil {
		t.Fatalf("point err %v, batch err %v", pointErr, batchErr)
	}
	if batchResp.Scores[0] != pointResp.Score {
		t.Fatalf("coalesced batch score %v != point score %v", batchResp.Scores[0], pointResp.Score)
	}
	// Two underlying computations: the point pair (led by /pair) and the
	// fresh pair (the batch's). The shared pair was coalesced.
	if got := srv.computes.Value(); got != 2 {
		t.Fatalf("%d computations, want 2", got)
	}
	if got := srv.coalesced.Value(); got != 1 {
		t.Fatalf("%d coalesced, want 1", got)
	}
	if batchResp.Hits != 0 {
		t.Fatalf("batch reported %d cache hits, want 0 (it waited on a flight)", batchResp.Hits)
	}
}

// TestPairJoinsBatchFlight is the reverse direction: a GET /pair for a
// pair that a /pairs batch is currently computing coalesces onto the
// batch's flight instead of recomputing.
func TestPairJoinsBatchFlight(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: -1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var hookOnce, releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
	srv.testComputeHook = func(_ context.Context, key string) {
		if key == "g0/p/30/31" {
			hookOnce.Do(func() { close(entered) })
			<-release
		}
	}

	var batchResp pairsResponse
	var batchErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := ts.Client().Post(ts.URL+"/pairs", "application/json",
			bytes.NewBufferString(`{"pairs":[[30,31],[32,33]]}`))
		if err != nil {
			batchErr = err
			return
		}
		defer resp.Body.Close()
		batchErr = json.NewDecoder(resp.Body).Decode(&batchResp)
	}()
	<-entered

	var pointResp pairResponse
	var pointErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := ts.Client().Get(ts.URL + "/pair?i=30&j=31")
		if err != nil {
			pointErr = err
			return
		}
		defer resp.Body.Close()
		pointErr = json.NewDecoder(resp.Body).Decode(&pointResp)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for srv.flight.pendingWaiters("g0/p/30/31") < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("point query never joined the batch flight: %d waiters",
				srv.flight.pendingWaiters("g0/p/30/31"))
		}
		time.Sleep(time.Millisecond)
	}
	releaseOnce.Do(func() { close(release) })
	wg.Wait()

	if pointErr != nil || batchErr != nil {
		t.Fatalf("point err %v, batch err %v", pointErr, batchErr)
	}
	if pointResp.Score != batchResp.Scores[0] {
		t.Fatalf("point score %v != batch score %v", pointResp.Score, batchResp.Scores[0])
	}
	if got := srv.computes.Value(); got != 2 {
		t.Fatalf("%d computations, want 2 (the batch's two pairs)", got)
	}
	if got := srv.coalesced.Value(); got != 1 {
		t.Fatalf("%d coalesced, want 1 (the point query)", got)
	}
}

// TestPairsRejectedBatchLeavesNoFlight: a batch that fails validation
// midway must not have opened flights for its earlier valid pairs — a
// following point query for one of those pairs must compute normally
// instead of inheriting a rejection error.
func TestPairsRejectedBatchLeavesNoFlight(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Post(ts.URL+"/pairs", "application/json",
		bytes.NewBufferString(`{"pairs":[[40,41],[0,999999]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed batch: status %d, want 400", resp.StatusCode)
	}
	if got := srv.flight.pendingWaiters("g0/p/40/41"); got != 0 {
		t.Fatalf("rejected batch left a flight with %d waiters", got)
	}
	var pr pairResponse
	getJSON(t, ts, "/pair?i=40&j=41", http.StatusOK, &pr)
	if pr.Score < 0 || pr.Score > 1 {
		t.Fatalf("score %g outside [0,1]", pr.Score)
	}
	if got := srv.computes.Value(); got != 1 {
		t.Fatalf("%d computations, want 1 (the rejected batch must compute nothing)", got)
	}
}
