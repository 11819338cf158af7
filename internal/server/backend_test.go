package server

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudwalker/internal/core"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/linserve"
	"cloudwalker/internal/oracle"
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

func TestBackendValidation(t *testing.T) {
	q := querier(t)
	eng := linEngine(t)

	other := graph.MustFromEdges(3, [][2]int{{0, 1}, {1, 2}})
	otherEng, err := linserve.Build(other, linserve.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(q, Config{Lin: otherEng}); err == nil {
		t.Fatal("engine bound to a different graph accepted")
	}
	if _, err := New(q, Config{Lin: eng}); err != nil {
		t.Fatalf("valid lin config rejected: %v", err)
	}
}

func TestBackendParamWithoutEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Explicit lin on a server with no diagonal: a clear 400.
	var eb ErrorBody
	oracle.Get(t, ts.Client(), ts.URL+"/pair?i=1&j=2&backend=lin", http.StatusBadRequest, &eb)
	if !strings.Contains(eb.Error, "no linearized diagonal") {
		t.Fatalf("lin-without-engine error %q does not name the cause", eb.Error)
	}
	oracle.Get(t, ts.Client(), ts.URL+"/source?node=1&backend=lin", http.StatusBadRequest, &eb)
	if !strings.Contains(eb.Error, "no linearized diagonal") {
		t.Fatalf("source lin-without-engine error %q does not name the cause", eb.Error)
	}

	// Unknown names reject, auto among them.
	for _, name := range []string{"turbo", "auto"} {
		oracle.Get(t, ts.Client(), ts.URL+"/pair?i=1&j=2&backend="+name, http.StatusBadRequest, &eb)
		if !strings.Contains(eb.Error, "want mc or lin") {
			t.Fatalf("backend=%s error %q does not name the choices", name, eb.Error)
		}
	}
}

func TestBackendLinPair(t *testing.T) {
	eng := linEngine(t)
	_, ts := newTestServer(t, Config{Lin: eng})
	get := func(path string) (pr pairResponse, hdr http.Header) {
		hdr = oracle.Get(t, ts.Client(), ts.URL+path, http.StatusOK, &pr)
		return pr, hdr
	}
	want, err := eng.SinglePair(10, 11)
	if err != nil {
		t.Fatal(err)
	}

	first, hdr := get("/pair?i=10&j=11&backend=lin")
	if first.Backend != BackendLin || hdr.Get(BackendHeader) != BackendLin {
		t.Fatalf("backend=lin answered by %q (%s %q)", first.Backend, BackendHeader, hdr.Get(BackendHeader))
	}
	if first.Cached || first.Score != want {
		t.Fatalf("first lin query: cached=%v score=%v, want a miss scoring the engine's %v", first.Cached, first.Score, want)
	}
	// Repeat hits the lin cache entry with a bit-identical score.
	if hit, _ := get("/pair?i=10&j=11&backend=lin"); !hit.Cached || hit.Score != want || hit.Backend != BackendLin {
		t.Fatalf("lin repeat: %+v, want a lin hit of %v", hit, want)
	}
	// An explicit backend=mc on the same pair is a MISS: the two engines'
	// answers live under distinct cache keys and must never alias.
	mc, _ := get("/pair?i=10&j=11&backend=mc")
	if mc.Cached || mc.Backend != BackendMC {
		t.Fatalf("backend=mc after lin: cached=%v backend=%q, want an mc miss", mc.Cached, mc.Backend)
	}
	// A request naming no backend is that mc entry, even on a server
	// holding a linearized engine.
	if plain, _ := get("/pair?i=10&j=11"); !plain.Cached || plain.Backend != BackendMC || plain.Score != mc.Score {
		t.Fatalf("backend-less request: %+v, want a hit of the mc entry %+v", plain, mc)
	}
	// And the lin entry is still there, untouched by the mc computation.
	if hit, _ := get("/pair?i=10&j=11&backend=lin"); !hit.Cached || hit.Score != want {
		t.Fatalf("lin entry lost after mc query: cached=%v score=%v", hit.Cached, hit.Score)
	}
}

func TestBackendSourceLin(t *testing.T) {
	eng := linEngine(t)
	_, ts := newTestServer(t, Config{Lin: eng})
	v, err := eng.SingleSource(5)
	if err != nil {
		t.Fatal(err)
	}
	want := core.TopKNeighbors(v, 5, 10)

	var sr sourceResponse
	oracle.Get(t, ts.Client(), ts.URL+"/source?node=5&k=10&backend=lin", http.StatusOK, &sr)
	if sr.Backend != BackendLin || !slices.Equal(sr.Results, want) {
		t.Fatalf("lin source: backend %q, results %+v; want lin, %+v", sr.Backend, sr.Results, want)
	}
	// Repeat is a hit; mc on the same node misses (separate key space).
	oracle.Get(t, ts.Client(), ts.URL+"/source?node=5&k=10&backend=lin", http.StatusOK, &sr)
	if !sr.Cached {
		t.Fatal("lin source repeat missed the cache")
	}
	oracle.Get(t, ts.Client(), ts.URL+"/source?node=5&k=10&backend=mc", http.StatusOK, &sr)
	if sr.Cached || sr.Backend != BackendMC {
		t.Fatalf("mc source after lin: cached=%v backend=%q", sr.Cached, sr.Backend)
	}
	// Partition restriction (part=i/N) applies to lin answers too.
	var part sourceResponse
	oracle.Get(t, ts.Client(), ts.URL+"/source?node=5&k=10&backend=lin&part=0/2", http.StatusOK, &part)
	for _, nb := range part.Results {
		if NodePart(nb.Node, 2) != 0 {
			t.Fatalf("node %d leaked into partition 0/2", nb.Node)
		}
	}
}

func TestBackendPairsBatch(t *testing.T) {
	eng := linEngine(t)
	_, ts := newTestServer(t, Config{Lin: eng})
	var want []float64
	for _, p := range [][2]int{{1, 2}, {3, 4}, {1, 2}} {
		s, err := eng.SinglePair(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, s)
	}

	var resp pairsResponse
	oracle.Post(t, ts.Client(), ts.URL+"/pairs", `{"pairs":[[1,2],[3,4],[2,1]],"backend":"lin"}`, http.StatusOK, &resp)
	if !slices.Equal(resp.Scores, want) {
		t.Fatalf("batch scores %v, want the engine's %v", resp.Scores, want)
	}
	if len(resp.Backends) != 1 || resp.Backends[BackendLin] != 3 {
		t.Fatalf("batch backend split %v, want 3 lin", resp.Backends)
	}
	// Unknown backend names reject, auto among them.
	oracle.Post(t, ts.Client(), ts.URL+"/pairs", `{"pairs":[[1,2]],"backend":"turbo"}`, http.StatusBadRequest, nil)
	oracle.Post(t, ts.Client(), ts.URL+"/pairs", `{"pairs":[[1,2]],"backend":"auto"}`, http.StatusBadRequest, nil)
}

func TestBackendHealthz(t *testing.T) {
	eng := linEngine(t)
	_, ts := newTestServer(t, Config{Lin: eng})

	var hz healthzResponse
	oracle.Get(t, ts.Client(), ts.URL+"/healthz", http.StatusOK, &hz)
	if len(hz.Backends) != 2 || hz.Backends[0] != BackendMC || hz.Backends[1] != BackendLin {
		t.Fatalf("healthz backends %v, want [mc lin]", hz.Backends)
	}

	_, plain := newTestServer(t, Config{})
	oracle.Get(t, plain.Client(), plain.URL+"/healthz", http.StatusOK, &hz)
	if len(hz.Backends) != 1 || hz.Backends[0] != BackendMC {
		t.Fatalf("mc-only healthz backends %v, want [mc]", hz.Backends)
	}
}

// swapGraph is the small graph the hot-swap tests serve and edit.
var swapGraph = graph.MustFromEdges(12, [][2]int{
	{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 1}, {5, 1},
	{6, 2}, {7, 3}, {8, 0}, {9, 4}, {10, 5}, {11, 6},
})

// newSwapServer serves swapGraph dynamically with a lin engine bound to
// it, built with opts.
func newSwapServer(t *testing.T, opts linserve.Options) (*Server, *httptest.Server) {
	t.Helper()
	eng, err := linserve.Build(swapGraph, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(buildDynQuerier(t, swapGraph), Config{Lin: eng, Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// hasLin reports whether /healthz lists the lin backend.
func hasLin(hz healthzResponse) bool {
	for _, b := range hz.Backends {
		if b == BackendLin {
			return true
		}
	}
	return false
}

// TestLinRebuildWindowAnswers503: while the server re-solves the
// diagonal after a hot-swap, a lin plan answers 503 with Retry-After,
// which a fleet router fails over on; a 400 would be relayed to the
// client as final. mc keeps serving, and /healthz reports the re-solve
// without listing lin. Once the engine flips in, the same requests answer
// lin at the swapped generation.
func TestLinRebuildWindowAnswers503(t *testing.T) {
	hold := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(hold) }) }
	t.Cleanup(open)
	srv, ts := newSwapServer(t, linserve.DefaultOptions())
	srv.testRebuildHook = func(uint64) { <-hold }
	var pr pairResponse
	oracle.Get(t, ts.Client(), ts.URL+"/pair?i=0&j=1&backend=lin", http.StatusOK, &pr)
	if pr.Backend != BackendLin {
		t.Fatalf("pre-swap lin query answered %q", pr.Backend)
	}
	oracle.Post(t, ts.Client(), ts.URL+"/edges", `{"insert":[[0,7]]}`, http.StatusOK, nil)
	var rr refreshResponse
	oracle.Post(t, ts.Client(), ts.URL+"/refresh?wait=1", ``, http.StatusOK, &rr)

	paths := []string{"/pair?i=0&j=1&backend=lin", "/source?node=0&backend=lin"}
	for _, path := range paths {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
			t.Fatalf("GET %s during the rebuild: status %d Retry-After %q body %s, want 503 and 1",
				path, resp.StatusCode, resp.Header.Get("Retry-After"), body)
		}
	}
	resp, err := ts.Client().Post(ts.URL+"/pairs", "application/json", strings.NewReader(`{"pairs":[[0,1]],"backend":"lin"}`))
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("POST /pairs during the rebuild: status %d body %s, want 503 with Retry-After", resp.StatusCode, body)
	}
	// mc is unaffected by the window, named or not.
	oracle.Get(t, ts.Client(), ts.URL+"/pair?i=0&j=1&backend=mc", http.StatusOK, &pr)
	oracle.Get(t, ts.Client(), ts.URL+"/pair?i=0&j=1", http.StatusOK, &pr)
	if pr.Backend != BackendMC {
		t.Fatalf("post-swap backend-less request answered %q, want mc", pr.Backend)
	}
	var hz healthzResponse
	oracle.Get(t, ts.Client(), ts.URL+"/healthz", http.StatusOK, &hz)
	if hasLin(hz) || !hz.LinRebuilding {
		t.Fatalf("healthz during the rebuild: backends %v lin_rebuilding %v, want [mc] and true", hz.Backends, hz.LinRebuilding)
	}

	open()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var hz healthzResponse
		oracle.Get(t, ts.Client(), ts.URL+"/healthz", http.StatusOK, &hz)
		if len(hz.Backends) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lin engine never flipped in after the rebuild was released")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, path := range paths {
		var got struct {
			Backend string `json:"backend"`
			Gen     uint64 `json:"gen"`
		}
		oracle.Get(t, ts.Client(), ts.URL+path, http.StatusOK, &got)
		if got.Backend != BackendLin || got.Gen != rr.Gen {
			t.Fatalf("GET %s after the rebuild: backend %q gen %d, want lin at gen %d", path, got.Backend, got.Gen, rr.Gen)
		}
	}
}

// TestLinRebuildOverlapKeepsState: two quick refreshes run two re-solves
// at once, because the refresh semaphore is released before a re-solve
// ends. The older one ending first is discarded, and it must leave
// /healthz reporting the newer one in flight: lin_rebuilding false with
// lin missing is what a failed re-solve reports. Once the newer one
// lands, lin serves at its generation.
func TestLinRebuildOverlapKeepsState(t *testing.T) {
	holds := []chan struct{}{make(chan struct{}), make(chan struct{})}
	var once [2]sync.Once
	open := func(n int) { once[n].Do(func() { close(holds[n]) }) }
	t.Cleanup(func() { open(0); open(1) })
	srv, ts := newSwapServer(t, linserve.DefaultOptions())
	var calls atomic.Int32
	srv.testRebuildHook = func(uint64) { <-holds[calls.Add(1)-1] }

	var rr refreshResponse
	for _, e := range []string{`{"insert":[[0,7]]}`, `{"insert":[[1,8]]}`} {
		oracle.Post(t, ts.Client(), ts.URL+"/edges", e, http.StatusOK, nil)
		oracle.Post(t, ts.Client(), ts.URL+"/refresh?wait=1", ``, http.StatusOK, &rr)
	}
	// Release the older re-solve. It has nothing left to wait on; watch
	// /healthz while it runs out and is discarded.
	open(0)
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
		var hz healthzResponse
		oracle.Get(t, ts.Client(), ts.URL+"/healthz", http.StatusOK, &hz)
		if hz.Gen != rr.Gen || hasLin(hz) || !hz.LinRebuilding {
			t.Fatalf("healthz with the newer re-solve in flight: gen %d backends %v lin_rebuilding %v, want gen %d, [mc], true",
				hz.Gen, hz.Backends, hz.LinRebuilding, rr.Gen)
		}
	}
	oracle.Get(t, ts.Client(), ts.URL+"/pair?i=0&j=1&backend=lin", http.StatusServiceUnavailable, nil)

	open(1)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var hz healthzResponse
		oracle.Get(t, ts.Client(), ts.URL+"/healthz", http.StatusOK, &hz)
		if hasLin(hz) {
			if hz.LinRebuilding {
				t.Fatal("healthz lists lin and still reports lin_rebuilding")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the newer re-solve never flipped in")
		}
	}
	var pr pairResponse
	oracle.Get(t, ts.Client(), ts.URL+"/pair?i=0&j=1&backend=lin", http.StatusOK, &pr)
	if pr.Backend != BackendLin || pr.Gen != rr.Gen {
		t.Fatalf("lin answer backend %q gen %d, want lin at gen %d", pr.Backend, pr.Gen, rr.Gen)
	}
}
