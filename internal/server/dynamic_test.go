package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cloudwalker/internal/core"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/linserve"
	"cloudwalker/internal/oracle"
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

func TestDynamicDisabledAnswers503(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	oracle.Post(t, ts.Client(), ts.URL+"/edges", `{"insert":[[0,1]]}`, http.StatusServiceUnavailable, nil)
	oracle.Post(t, ts.Client(), ts.URL+"/refresh", ``, http.StatusServiceUnavailable, nil)
}

// TestDynamicResumesInitialGen: the server's edit log starts at
// InitialGen, so a restored dynamic daemon counts generations on from
// the one it saved.
func TestDynamicResumesInitialGen(t *testing.T) {
	_, _, ts := newDynamicServer(t, Config{InitialGen: 7})
	var hz healthzResponse
	oracle.Get(t, ts.Client(), ts.URL+"/healthz", http.StatusOK, &hz)
	if hz.Gen != 7 {
		t.Fatalf("healthz gen %d, want 7", hz.Gen)
	}
	var er edgesResponse
	oracle.Post(t, ts.Client(), ts.URL+"/edges", `{"insert":[[0,19]]}`, http.StatusOK, &er)
	if er.Gen != 8 {
		t.Fatalf("edit gen %d, want 8", er.Gen)
	}
	var rr refreshResponse
	oracle.Post(t, ts.Client(), ts.URL+"/refresh?wait=1", ``, http.StatusOK, &rr)
	oracle.Get(t, ts.Client(), ts.URL+"/healthz", http.StatusOK, &hz)
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
		oracle.Post(t, ts.Client(), ts.URL+"/edges", body, http.StatusBadRequest, nil)
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

// TestDynamicUpdateRefreshSwap is the hot-swap acceptance flow: a dynamic
// server with a lin engine answers the oracle at generation 0, takes an
// edit batch (queries between the edit and the refresh still answer the
// old snapshot), swaps, and answers the oracle at the new generation as a
// from-scratch index of the edited edge list does, and, once the
// background re-solve lands, a from-scratch lin engine of it. The edits
// move the edited pair's answer, so an old-generation cache entry or
// engine reaching a post-swap answer fails the second check.
func TestDynamicUpdateRefreshSwap(t *testing.T) {
	q, eng := querier(t), linEngine(t)
	srv, err := New(q, Config{Lin: eng, Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	qs := oracle.Sample(q, 5, 4)
	oracle.Check(t, ts.Client(), ts.URL, oracle.Ref{Q: q, Lin: eng}, qs)

	// Give the first sampled pair two new common in-neighbors (SimRank
	// walks backward, so shared sources pointing AT them drive their
	// similarity) and drop one in-link of the first sampled source.
	g := q.Graph()
	i, j := qs.Pairs[0][0], qs.Pairs[0][1]
	var inserts [][2]int
	for u := 0; len(inserts) < 4; u++ {
		if u != i && u != j && !g.HasEdge(u, i) && !g.HasEdge(u, j) {
			inserts = append(inserts, [2]int{u, i}, [2]int{u, j})
		}
	}
	del := [2]int{int(g.InNeighbors(qs.Sources[0])[0]), qs.Sources[0]}
	body, _ := json.Marshal(map[string][][2]int{"insert": inserts, "delete": {del}})
	var er edgesResponse
	oracle.Post(t, ts.Client(), ts.URL+"/edges", string(body), http.StatusOK, &er)
	if er.Inserted != 4 || er.Deleted != 1 || er.Pending != 5 || er.Gen != srv.dyn.Gen() {
		t.Fatalf("edges response %+v, want 4 inserted, 1 deleted, 5 pending at log gen %d", er, srv.dyn.Gen())
	}
	before, err := q.SinglePair(i, j)
	if err != nil {
		t.Fatal(err)
	}
	var mid pairResponse
	oracle.Get(t, ts.Client(), ts.URL+fmt.Sprintf("/pair?i=%d&j=%d", i, j), http.StatusOK, &mid)
	if mid.Gen != 0 || mid.Score != before {
		t.Fatalf("query between edit and refresh: %+v, want the gen-0 score %v", mid, before)
	}

	var rr refreshResponse
	oracle.Post(t, ts.Client(), ts.URL+"/refresh?wait=1", ``, http.StatusOK, &rr)
	if !rr.Started || !rr.Swapped || rr.Gen != er.Gen {
		t.Fatalf("refresh response: %+v (want swap to gen %d)", rr, er.Gen)
	}
	var hz healthzResponse
	for deadline := time.Now().Add(10 * time.Second); !hasLin(hz); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("lin engine never re-solved after the swap (healthz %+v)", hz)
		}
		hz = healthzResponse{}
		oracle.Get(t, ts.Client(), ts.URL+"/healthz", http.StatusOK, &hz)
	}
	if hz.Gen != er.Gen || hz.Pending != 0 || !hz.Dynamic || hz.LinRebuilding {
		t.Fatalf("healthz after swap: %+v", hz)
	}

	b := graph.NewBuilder(g.NumNodes())
	g.Edges(func(u, v int32) bool {
		if [2]int{int(u), int(v)} != del {
			b.AddEdge(int(u), int(v))
		}
		return true
	})
	for _, e := range inserts {
		b.AddEdge(e[0], e[1])
	}
	edited, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := core.BuildIndex(edited, q.Index().Opts)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := core.NewQuerier(edited, idx)
	if err != nil {
		t.Fatal(err)
	}
	scratchLin, err := linserve.Build(edited, eng.Options())
	if err != nil {
		t.Fatal(err)
	}
	if after, _ := scratch.SinglePair(i, j); after == before {
		t.Fatal("the edits did not move the edited pair's similarity; the swap check is vacuous")
	}
	oracle.Check(t, ts.Client(), ts.URL, oracle.Ref{Q: scratch, Lin: scratchLin, Gen: er.Gen}, qs)
	if got := srv.StatsSnapshot(); got.Swaps != 1 || got.Updates != 5 {
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
	oracle.Post(t, ts.Client(), ts.URL+"/refresh?wait=1", ``, http.StatusOK, &rr)
	var hz healthzResponse
	oracle.Get(t, ts.Client(), ts.URL+"/healthz", http.StatusOK, &hz)
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
	oracle.Get(t, ts.Client(), ts.URL+"/pair?i=5&j=6", http.StatusOK, &after)
	if after.Gen != hz.Gen {
		t.Fatalf("final query gen %d, healthz gen %d", after.Gen, hz.Gen)
	}
}
