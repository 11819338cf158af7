package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cloudwalker/internal/core"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/linserve"
)

// testLinEngine builds a linearized engine over the shared test graph
// once (linserve.Build solves the diagonal; the suite reuses it).
var (
	tleOnce sync.Once
	tle     *linserve.Engine
)

func linEngine(t *testing.T) *linserve.Engine {
	t.Helper()
	q := querier(t)
	tleOnce.Do(func() {
		opts := linserve.DefaultOptions()
		opts.T = 6
		opts.Sweeps = 8
		e, err := linserve.Build(q.Graph(), opts)
		if err != nil {
			panic(err)
		}
		tle = e
	})
	return tle
}

func TestBackendLinPair(t *testing.T) {
	eng := linEngine(t)
	_, ts := newTestServer(t, Config{Backend: BackendLin, Lin: eng})

	want, err := eng.SinglePair(10, 11)
	if err != nil {
		t.Fatal(err)
	}

	var first pairResponse
	getJSON(t, ts, "/pair?i=10&j=11", http.StatusOK, &first)
	if first.Backend != BackendLin {
		t.Fatalf("default-lin server answered backend %q", first.Backend)
	}
	if first.Cached {
		t.Fatal("first lin query reported cached")
	}
	if first.Score != want {
		t.Fatalf("lin score %v != engine score %v", first.Score, want)
	}

	// Repeat hits the lin cache entry with a bit-identical score.
	var hit pairResponse
	getJSON(t, ts, "/pair?i=10&j=11", http.StatusOK, &hit)
	if !hit.Cached || hit.Score != first.Score || hit.Backend != BackendLin {
		t.Fatalf("lin repeat: cached=%v backend=%q score=%v, want hit of %v",
			hit.Cached, hit.Backend, hit.Score, first.Score)
	}

	// An explicit backend=mc on the same pair is a MISS: the two engines'
	// answers live under distinct cache keys and must never alias.
	var mc pairResponse
	getJSON(t, ts, "/pair?i=10&j=11&backend=mc", http.StatusOK, &mc)
	if mc.Cached {
		t.Fatal("backend=mc was answered from the lin cache entry")
	}
	if mc.Backend != BackendMC {
		t.Fatalf("backend=mc answered %q", mc.Backend)
	}

	// And the lin entry is still there, untouched by the mc computation.
	getJSON(t, ts, "/pair?i=10&j=11", http.StatusOK, &hit)
	if !hit.Cached || hit.Score != want {
		t.Fatalf("lin entry lost after mc query: cached=%v score=%v", hit.Cached, hit.Score)
	}

	// The effective backend is also stamped on the response headers.
	resp, err := ts.Client().Get(ts.URL + "/pair?i=10&j=11")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h := resp.Header.Get(BackendHeader); h != BackendLin {
		t.Fatalf("%s header %q, want lin", BackendHeader, h)
	}
}

func TestBackendValidation(t *testing.T) {
	q := querier(t)
	eng := linEngine(t)

	if _, err := New(q, Config{Backend: "turbo"}); err == nil {
		t.Fatal("unknown default backend accepted")
	}
	if _, err := New(q, Config{Backend: BackendLin}); err == nil {
		t.Fatal("default backend lin without an engine accepted")
	}
	if _, err := New(q, Config{Backend: BackendAuto}); err == nil {
		t.Fatal("default backend auto without an engine accepted")
	}
	if _, err := New(q, Config{AutoHotHits: -1}); err == nil {
		t.Fatal("negative auto-hot threshold accepted")
	}
	other := graph.MustFromEdges(3, [][2]int{{0, 1}, {1, 2}})
	otherEng, err := linserve.Build(other, linserve.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(q, Config{Lin: otherEng}); err == nil {
		t.Fatal("engine bound to a different graph accepted")
	}
	if _, err := New(q, Config{Backend: BackendLin, Lin: eng}); err != nil {
		t.Fatalf("valid lin config rejected: %v", err)
	}
}

func TestBackendParamWithoutEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Explicit lin on a server with no diagonal: a clear 400.
	var eb errorBody
	getJSON(t, ts, "/pair?i=1&j=2&backend=lin", http.StatusBadRequest, &eb)
	if !strings.Contains(eb.Error, "no linearized diagonal") {
		t.Fatalf("lin-without-engine error %q does not name the cause", eb.Error)
	}
	getJSON(t, ts, "/source?node=1&backend=lin", http.StatusBadRequest, &eb)
	if !strings.Contains(eb.Error, "no linearized diagonal") {
		t.Fatalf("source lin-without-engine error %q does not name the cause", eb.Error)
	}

	// auto degrades to Monte Carlo instead of failing.
	var pr pairResponse
	getJSON(t, ts, "/pair?i=1&j=2&backend=auto", http.StatusOK, &pr)
	if pr.Backend != BackendMC {
		t.Fatalf("auto without an engine answered %q, want mc", pr.Backend)
	}

	// Unknown names reject.
	getJSON(t, ts, "/pair?i=1&j=2&backend=turbo", http.StatusBadRequest, nil)
}

// TestBackendAutoRouting is the end-to-end check of the auto router: a
// pair starts on Monte Carlo, accumulates cache-entry hits, crosses the
// hot threshold, and moves to the linearized engine — while a cold pair
// stays on Monte Carlo, and the two backends' entries remain distinct.
func TestBackendAutoRouting(t *testing.T) {
	eng := linEngine(t)
	srv, ts := newTestServer(t, Config{Backend: BackendAuto, Lin: eng, AutoHotHits: 2})

	linScore, err := eng.SinglePair(3, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Query 1: cold -> mc, computed.
	var r1 pairResponse
	getJSON(t, ts, "/pair?i=3&j=4", http.StatusOK, &r1)
	if r1.Backend != BackendMC || r1.Cached {
		t.Fatalf("cold query: backend=%q cached=%v, want fresh mc", r1.Backend, r1.Cached)
	}
	mcScore := r1.Score

	// Queries 2 and 3: cache hits on the mc entry (hits 1 and 2).
	for n := 2; n <= 3; n++ {
		var r pairResponse
		getJSON(t, ts, "/pair?i=3&j=4", http.StatusOK, &r)
		if r.Backend != BackendMC || !r.Cached || r.Score != mcScore {
			t.Fatalf("query %d: backend=%q cached=%v score=%v, want cached mc %v",
				n, r.Backend, r.Cached, r.Score, mcScore)
		}
	}

	// Query 4: the entry has 2 hits >= threshold -> routed to lin, which
	// computes fresh (its own key) and returns the engine's exact value.
	var r4 pairResponse
	getJSON(t, ts, "/pair?i=3&j=4", http.StatusOK, &r4)
	if r4.Backend != BackendLin || r4.Cached {
		t.Fatalf("hot query: backend=%q cached=%v, want fresh lin", r4.Backend, r4.Cached)
	}
	if r4.Score != linScore {
		t.Fatalf("hot query score %v != engine score %v", r4.Score, linScore)
	}

	// Query 5: stays lin, now served from the lin entry.
	var r5 pairResponse
	getJSON(t, ts, "/pair?i=3&j=4", http.StatusOK, &r5)
	if r5.Backend != BackendLin || !r5.Cached || r5.Score != linScore {
		t.Fatalf("hot repeat: backend=%q cached=%v score=%v, want cached lin %v",
			r5.Backend, r5.Cached, r5.Score, linScore)
	}

	// The mc entry survives alongside: an explicit backend=mc request is
	// a cache hit with the original Monte Carlo estimate.
	var mc pairResponse
	getJSON(t, ts, "/pair?i=3&j=4&backend=mc", http.StatusOK, &mc)
	if !mc.Cached || mc.Score != mcScore || mc.Backend != BackendMC {
		t.Fatalf("mc entry after lin switch: cached=%v backend=%q score=%v, want cached %v",
			mc.Cached, mc.Backend, mc.Score, mcScore)
	}

	// A cold pair routes mc.
	var cold pairResponse
	getJSON(t, ts, "/pair?i=20&j=21", http.StatusOK, &cold)
	if cold.Backend != BackendMC {
		t.Fatalf("cold pair routed to %q", cold.Backend)
	}

	// Both engines computed at least once, and /stats exposes the split.
	st := srv.StatsSnapshot()
	if st.Backends[BackendMC] < 2 || st.Backends[BackendLin] != 1 {
		t.Fatalf("backend query split %v, want >=2 mc and exactly 1 lin", st.Backends)
	}
}

func TestBackendSourceLin(t *testing.T) {
	eng := linEngine(t)
	_, ts := newTestServer(t, Config{Lin: eng})

	v, err := eng.SingleSource(5)
	if err != nil {
		t.Fatal(err)
	}
	want := toNeighborJSON(core.TopKNeighbors(v, 5, 10))

	var sr sourceResponse
	getJSON(t, ts, "/source?node=5&k=10&backend=lin", http.StatusOK, &sr)
	if sr.Backend != BackendLin {
		t.Fatalf("source backend %q, want lin", sr.Backend)
	}
	if len(sr.Results) != len(want) {
		t.Fatalf("lin source returned %d results, want %d", len(sr.Results), len(want))
	}
	for i, nb := range sr.Results {
		if nb.Node != want[i].Node || nb.Score != want[i].Score {
			t.Fatalf("result %d: got (%d, %v), want (%d, %v)",
				i, nb.Node, nb.Score, want[i].Node, want[i].Score)
		}
	}

	// Repeat is a hit; mc on the same node misses (separate key space).
	getJSON(t, ts, "/source?node=5&k=10&backend=lin", http.StatusOK, &sr)
	if !sr.Cached {
		t.Fatal("lin source repeat missed the cache")
	}
	getJSON(t, ts, "/source?node=5&k=10&backend=mc", http.StatusOK, &sr)
	if sr.Cached || sr.Backend != BackendMC {
		t.Fatalf("mc source after lin: cached=%v backend=%q", sr.Cached, sr.Backend)
	}

	// Partition restriction applies to lin answers too (fleet scatter).
	var part sourceResponse
	getJSON(t, ts, "/source?node=5&k=10&backend=lin&part=0/2", http.StatusOK, &part)
	for _, nb := range part.Results {
		if NodePart(nb.Node, 2) != 0 {
			t.Fatalf("node %d leaked into partition 0/2", nb.Node)
		}
	}
}

func TestBackendPairsBatch(t *testing.T) {
	eng := linEngine(t)
	_, ts := newTestServer(t, Config{Lin: eng})

	want := make([]float64, 3)
	for i, p := range [][2]int{{1, 2}, {3, 4}, {1, 2}} {
		s, err := eng.SinglePair(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}

	var resp pairsResponse
	postJSON(t, ts, "/pairs", `{"pairs":[[1,2],[3,4],[2,1]],"backend":"lin"}`, http.StatusOK, &resp)
	for i, s := range resp.Scores {
		if s != want[i] {
			t.Fatalf("batch score %d: %v != engine %v", i, s, want[i])
		}
	}
	if resp.Backends[BackendLin] != 3 {
		t.Fatalf("batch backend split %v, want 3 lin", resp.Backends)
	}

	// A cold auto batch stays on Monte Carlo.
	postJSON(t, ts, "/pairs", `{"pairs":[[30,31],[32,33]],"backend":"auto"}`, http.StatusOK, &resp)
	if resp.Backends[BackendMC] != 2 {
		t.Fatalf("cold auto batch split %v, want 2 mc", resp.Backends)
	}

	// Unknown backend names reject.
	postJSON(t, ts, "/pairs", `{"pairs":[[1,2]],"backend":"turbo"}`, http.StatusBadRequest, nil)
}

func TestBackendHealthz(t *testing.T) {
	eng := linEngine(t)
	_, ts := newTestServer(t, Config{Backend: BackendAuto, Lin: eng})

	var hz healthzResponse
	getJSON(t, ts, "/healthz", http.StatusOK, &hz)
	if hz.Backend != BackendAuto {
		t.Fatalf("healthz default backend %q, want auto", hz.Backend)
	}
	if len(hz.Backends) != 2 || hz.Backends[0] != BackendMC || hz.Backends[1] != BackendLin {
		t.Fatalf("healthz backends %v, want [mc lin]", hz.Backends)
	}

	_, plain := newTestServer(t, Config{})
	getJSON(t, plain, "/healthz", http.StatusOK, &hz)
	if hz.Backend != BackendMC || len(hz.Backends) != 1 {
		t.Fatalf("mc-only healthz: backend=%q backends=%v", hz.Backend, hz.Backends)
	}
}

// TestBackendDroppedOnHotSwap: a compaction hot-swap drops the lin
// engine (its diagonal was solved for the old graph). auto keeps serving
// through Monte Carlo; explicit lin answers 400; /healthz stops listing
// lin.
func TestBackendDroppedOnHotSwap(t *testing.T) {
	g := graph.MustFromEdges(12, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 1}, {5, 1},
		{6, 2}, {7, 3}, {8, 0}, {9, 4}, {10, 5}, {11, 6},
	})
	eng, err := linserve.Build(g, linserve.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dyn := graph.NewDynamic(g)
	srv, err := New(buildDynQuerier(t, g), Config{
		Backend: BackendAuto,
		Lin:     eng,
		Dynamic: dyn,
		Reindex: func(ng *graph.Graph) (*core.Querier, error) {
			return buildDynQuerier(t, ng), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var pr pairResponse
	getJSON(t, ts, "/pair?i=0&j=1&backend=lin", http.StatusOK, &pr)
	if pr.Backend != BackendLin {
		t.Fatalf("pre-swap lin query answered %q", pr.Backend)
	}

	postJSON(t, ts, "/edges", `{"insert":[[0,7]]}`, http.StatusOK, nil)
	postJSON(t, ts, "/refresh?wait=1", ``, http.StatusOK, nil)

	getJSON(t, ts, "/pair?i=0&j=1&backend=lin", http.StatusBadRequest, nil)
	getJSON(t, ts, "/pair?i=0&j=1", http.StatusOK, &pr)
	if pr.Backend != BackendMC {
		t.Fatalf("post-swap auto answered %q, want mc", pr.Backend)
	}
	var hz healthzResponse
	getJSON(t, ts, "/healthz", http.StatusOK, &hz)
	for _, b := range hz.Backends {
		if b == BackendLin {
			t.Fatal("healthz still lists lin after the hot-swap dropped it")
		}
	}
}

func TestCacheEntryHits(t *testing.T) {
	c, err := NewCache(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.EntryHits("absent") != 0 {
		t.Fatal("absent key reported hits")
	}
	c.Put("k", 1.0)
	if c.EntryHits("k") != 0 {
		t.Fatal("fresh entry reported hits")
	}
	before := c.Stats()
	if c.EntryHits("k") != 0 {
		t.Fatal("EntryHits perturbed the entry")
	}
	if after := c.Stats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("EntryHits changed hit/miss counters: %+v -> %+v", before, after)
	}
	for n := 1; n <= 3; n++ {
		if _, ok := c.Get("k"); !ok {
			t.Fatal("entry lost")
		}
		if got := c.EntryHits("k"); got != uint64(n) {
			t.Fatalf("after %d gets EntryHits = %d", n, got)
		}
	}
}
