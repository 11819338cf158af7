package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"cloudwalker/internal/core"
	"cloudwalker/internal/graph"
)

// dynTestOpts are the small-but-real index parameters of the dynamic
// serving tests (every refresh rebuilds the index, so keep it cheap).
func dynTestOpts() core.Options {
	opts := core.DefaultOptions()
	opts.T = 4
	opts.R = 20
	opts.RPrime = 150
	opts.Seed = 21
	return opts
}

// buildDynQuerier builds a querier over g with the test options.
func buildDynQuerier(t testing.TB, g *graph.Graph) *core.Querier {
	t.Helper()
	idx, _, err := core.BuildIndex(g, dynTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.NewQuerier(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// newDynamicServer wires a small graph and a test server with the
// dynamic path enabled, and returns the server's edit log.
func newDynamicServer(t testing.TB, cfg Config) (*graph.Dynamic, *Server, *httptest.Server) {
	t.Helper()
	g := graph.MustFromEdges(20, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},
		{5, 1}, {6, 1}, {5, 7}, {6, 8}, {9, 2},
		{10, 11}, {11, 12}, {12, 10}, {13, 2}, {14, 3},
	})
	cfg.Dynamic = true
	srv, err := New(buildDynQuerier(t, g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv.dyn, srv, ts
}

// postJSON posts a JSON body and decodes the JSON reply.
func postJSON(t testing.TB, ts *httptest.Server, path, body string, wantStatus int, v any) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", path, resp.StatusCode, wantStatus)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDynamicDisabledAnswers503(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts, "/edges", `{"insert":[[0,1]]}`, http.StatusServiceUnavailable, nil)
	postJSON(t, ts, "/refresh", ``, http.StatusServiceUnavailable, nil)
}

// TestDynamicResumesInitialGen: the server's edit log starts at
// InitialGen, so a restored dynamic daemon counts generations on from
// the one it saved.
func TestDynamicResumesInitialGen(t *testing.T) {
	_, _, ts := newDynamicServer(t, Config{InitialGen: 7})
	var hz healthzResponse
	getJSON(t, ts, "/healthz", http.StatusOK, &hz)
	if hz.Gen != 7 {
		t.Fatalf("healthz gen %d, want 7", hz.Gen)
	}
	var er edgesResponse
	postJSON(t, ts, "/edges", `{"insert":[[0,19]]}`, http.StatusOK, &er)
	if er.Gen != 8 {
		t.Fatalf("edit gen %d, want 8", er.Gen)
	}
	var rr refreshResponse
	postJSON(t, ts, "/refresh?wait=1", ``, http.StatusOK, &rr)
	getJSON(t, ts, "/healthz", http.StatusOK, &hz)
	if !rr.Swapped || rr.Gen != 8 || hz.Gen != 8 {
		t.Fatalf("after refresh: swapped %v, refresh gen %d, healthz gen %d; want gen 8", rr.Swapped, rr.Gen, hz.Gen)
	}
}

func TestEdgesValidation(t *testing.T) {
	dyn, _, ts := newDynamicServer(t, Config{})
	for _, body := range []string{
		`not json`,
		`{}`,                  // empty update
		`{"insert":[[3,3]]}`,  // self-loop
		`{"insert":[[-1,2]]}`, // negative id
		`{"delete":[[5,5]]}`,  // self-loop delete
		// Valid prefix + invalid tail: the whole batch must be rejected
		// without mutating the graph (no partial application on 400).
		`{"insert":[[0,19],[7,7]]}`,
		`{"insert":[[0,19]],"delete":[[-3,1]]}`,
	} {
		postJSON(t, ts, "/edges", body, http.StatusBadRequest, nil)
	}
	if dyn.Gen() != 0 || dyn.Dirty() {
		t.Fatalf("rejected batches mutated the graph: gen=%d dirty=%v", dyn.Gen(), dyn.Dirty())
	}
	// GET on update endpoints is rejected.
	resp, err := ts.Client().Get(ts.URL + "/edges")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /edges: status %d, want 405", resp.StatusCode)
	}
}

// TestDynamicUpdateRefreshSwap is the end-to-end acceptance flow: serve,
// update, hot-swap, and verify the post-swap answers are bit-identical
// to an independent from-scratch build of the final edge list — and that
// no stale-generation cache entry leaks into post-swap responses.
func TestDynamicUpdateRefreshSwap(t *testing.T) {
	dyn, srv, ts := newDynamicServer(t, Config{})

	var before pairResponse
	getJSON(t, ts, "/pair?i=5&j=6", http.StatusOK, &before)
	if before.Gen != 0 {
		t.Fatalf("pre-update gen = %d, want 0", before.Gen)
	}
	// Warm the cache and confirm the hit serves the same generation.
	var beforeHit pairResponse
	getJSON(t, ts, "/pair?i=5&j=6", http.StatusOK, &beforeHit)
	if !beforeHit.Cached || beforeHit.Score != before.Score || beforeHit.Gen != 0 {
		t.Fatalf("warm hit: %+v vs %+v", beforeHit, before)
	}

	// Give nodes 5 and 6 common in-neighbors (SimRank walks backward, so
	// similarity is driven by shared sources pointing AT them) and drop
	// one unrelated edge — s(5,6) must rise from its pre-update value.
	var er edgesResponse
	postJSON(t, ts, "/edges",
		`{"insert":[[15,5],[15,6],[16,5],[16,6],[0,5],[0,6]],"delete":[[5,7]]}`,
		http.StatusOK, &er)
	if er.Inserted != 6 || er.Deleted != 1 || er.Pending != 7 {
		t.Fatalf("edges response: %+v", er)
	}
	if er.Gen != dyn.Gen() {
		t.Fatalf("response gen %d, log gen %d", er.Gen, dyn.Gen())
	}

	// Queries between update and refresh still serve the old snapshot.
	var mid pairResponse
	getJSON(t, ts, "/pair?i=5&j=6", http.StatusOK, &mid)
	if mid.Gen != 0 || mid.Score != before.Score {
		t.Fatalf("pre-swap query drifted: %+v", mid)
	}

	var rr refreshResponse
	postJSON(t, ts, "/refresh?wait=1", ``, http.StatusOK, &rr)
	if !rr.Started || !rr.Swapped || rr.Gen != er.Gen {
		t.Fatalf("refresh response: %+v (want swap to gen %d)", rr, er.Gen)
	}

	var hz healthzResponse
	getJSON(t, ts, "/healthz", http.StatusOK, &hz)
	if hz.Gen != er.Gen || hz.Pending != 0 || !hz.Dynamic {
		t.Fatalf("healthz after swap: %+v", hz)
	}

	var after pairResponse
	getJSON(t, ts, "/pair?i=5&j=6", http.StatusOK, &after)
	if after.Gen != er.Gen {
		t.Fatalf("post-swap gen = %d, want %d (stale snapshot or cache entry)", after.Gen, er.Gen)
	}
	if after.Cached {
		t.Fatal("post-swap first query claims a cache hit: stale-generation entry leaked")
	}

	// Oracle: a from-scratch build of the final edge list must agree
	// bit-for-bit with what the swapped-in snapshot serves.
	final := srv.snaps.Load().Q.Graph()
	b := graph.NewBuilder(final.NumNodes())
	final.Edges(func(u, v int32) bool {
		if err := b.AddEdge(int(u), int(v)); err != nil {
			t.Fatal(err)
		}
		return true
	})
	scratch, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := buildDynQuerier(t, scratch).SinglePair(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if after.Score != oracle {
		t.Fatalf("post-swap score %v, oracle %v", after.Score, oracle)
	}
	if after.Score == before.Score {
		t.Fatal("update did not change the similarity; the swap assertion is vacuous")
	}
	if got := srv.StatsSnapshot(); got.Swaps != 1 || got.Updates != 7 {
		t.Fatalf("stats after swap: swaps=%d updates=%d", got.Swaps, got.Updates)
	}
}

// TestConcurrentUpdatesAndQueries hammers POST /edges and /pair
// concurrently (with auto-refresh swapping snapshots underneath) and
// asserts no query ever observes a half-applied generation: every
// response must carry a generation-consistent score, i.e. all responses
// for the same (pair, gen) are bit-identical. Run under -race in CI.
func TestConcurrentUpdatesAndQueries(t *testing.T) {
	_, srv, ts := newDynamicServer(t, Config{
		MaxInFlight:  -1, // the point is consistency, not shedding
		RefreshAfter: 5,
	})

	const (
		updaters  = 2
		queriers  = 4
		perWorker = 40
	)
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := map[string]float64{} // "i/j/gen" -> score
	errc := make(chan error, updaters+queriers)

	for u := 0; u < updaters; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				// Each updater walks a disjoint id range above the base
				// graph, steadily growing and rewiring it.
				a := 20 + u*perWorker + k
				body := fmt.Sprintf(`{"insert":[[%d,1],[5,%d]]}`, a, a)
				resp, err := ts.Client().Post(ts.URL+"/edges", "application/json",
					bytes.NewReader([]byte(body)))
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("POST /edges status %d", resp.StatusCode)
					return
				}
			}
		}(u)
	}
	for qw := 0; qw < queriers; qw++ {
		wg.Add(1)
		go func(qw int) {
			defer wg.Done()
			pairs := [][2]int{{5, 6}, {0, 2}, {10, 12}, {1, 9}}
			for k := 0; k < perWorker; k++ {
				p := pairs[(qw+k)%len(pairs)]
				var pr pairResponse
				resp, err := ts.Client().Get(fmt.Sprintf("%s/pair?i=%d&j=%d", ts.URL, p[0], p[1]))
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					errc <- fmt.Errorf("GET /pair status %d", resp.StatusCode)
					return
				}
				if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
					resp.Body.Close()
					errc <- err
					return
				}
				resp.Body.Close()
				key := fmt.Sprintf("%d/%d/%d", p[0], p[1], pr.Gen)
				mu.Lock()
				if prev, ok := seen[key]; ok && prev != pr.Score {
					mu.Unlock()
					errc <- fmt.Errorf("pair (%d,%d) at gen %d answered both %v and %v: half-applied generation",
						p[0], p[1], pr.Gen, prev, pr.Score)
					return
				}
				seen[key] = pr.Score
				mu.Unlock()
			}
		}(qw)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Drain: a final synchronous refresh must land on a clean log
	// whose served answers match a from-scratch oracle.
	var rr refreshResponse
	postJSON(t, ts, "/refresh?wait=1", ``, http.StatusOK, &rr)
	var hz healthzResponse
	getJSON(t, ts, "/healthz", http.StatusOK, &hz)
	if hz.Pending != 0 {
		t.Fatalf("pending %d after final refresh", hz.Pending)
	}
	if hz.Nodes != 20+updaters*perWorker {
		t.Fatalf("nodes = %d, want %d", hz.Nodes, 20+updaters*perWorker)
	}
	if srv.StatsSnapshot().Swaps == 0 {
		t.Fatal("auto-refresh never swapped")
	}

	var after pairResponse
	getJSON(t, ts, "/pair?i=5&j=6", http.StatusOK, &after)
	if after.Gen != hz.Gen {
		t.Fatalf("final query gen %d, healthz gen %d", after.Gen, hz.Gen)
	}
}
