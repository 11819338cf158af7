package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudwalker/internal/core"
	"cloudwalker/internal/gen"
	"cloudwalker/internal/server"
)

// The in-process fleet suite: real server.Server shards behind httptest
// listeners prove the router's answers are bit-identical to a single
// node's; scripted fake shards isolate the failure paths (the
// generation floor, malformed bodies) that real shards can't produce on
// demand. Process-level coverage (kill -9, rolling restarts) lives in
// the e2etest package.

var (
	fqOnce sync.Once
	fq     *core.Querier
)

func fleetQuerier(t *testing.T) *core.Querier {
	t.Helper()
	fqOnce.Do(func() {
		g, err := gen.RMAT(200, 1600, gen.DefaultRMAT, 7)
		if err != nil {
			panic(err)
		}
		opts := core.DefaultOptions()
		opts.T = 4
		opts.R = 30
		opts.RPrime = 200
		idx, _, err := core.BuildIndex(g, opts)
		if err != nil {
			panic(err)
		}
		fq, err = core.NewQuerier(g, idx)
		if err != nil {
			panic(err)
		}
	})
	return fq
}

// newShard spins up a real single-node server as one fleet shard.
func newShard(t *testing.T, name string) *httptest.Server {
	t.Helper()
	return newShardVia(t, name, func(h http.Handler) http.Handler { return h })
}

// newShardVia is newShard with wrap around the shard's handler, so a
// test can watch the requests the router sends.
func newShardVia(t *testing.T, name string, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	srv, err := server.New(fleetQuerier(t), server.Config{ShardName: name})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(wrap(srv.Handler()))
	t.Cleanup(ts.Close)
	return ts
}

// newFleet builds a router over the given shard base URLs and serves it.
func newFleet(t *testing.T, mode Mode, urls ...string) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(Config{
		Shards:         urls,
		Mode:           mode,
		AttemptTimeout: 5 * time.Second,
		RetryBackoff:   time.Millisecond,
		MaxPasses:      3,
		HealthInterval: -1, // deterministic tests drive liveness through traffic
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

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
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: decoding %s: %v", path, body, err)
		}
	}
}

func postJSON(t *testing.T, ts *httptest.Server, path, body string, wantStatus int, v any) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d; body %s", path, resp.StatusCode, wantStatus, b)
	}
	if v != nil {
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("POST %s: decoding %s: %v", path, b, err)
		}
	}
}

// TestRouterPairBitIdentical: a routed /pair answer equals a single
// node's answer bit-for-bit, for every pair tried, and carries the
// generation and shard headers.
func TestRouterPairBitIdentical(t *testing.T) {
	single := newShard(t, "")
	a, b, c := newShard(t, "a"), newShard(t, "b"), newShard(t, "c")
	_, fts := newFleet(t, Replicated, a.URL, b.URL, c.URL)

	for _, pair := range [][2]int{{1, 2}, {10, 11}, {33, 7}, {5, 5}, {0, 199}} {
		path := fmt.Sprintf("/pair?i=%d&j=%d", pair[0], pair[1])
		var want, got pairBody
		getJSON(t, single, path, http.StatusOK, &want)
		getJSON(t, fts, path, http.StatusOK, &got)
		if got.Score != want.Score {
			t.Fatalf("%s: fleet score %v != single-node score %v", path, got.Score, want.Score)
		}
	}
	resp, err := fts.Client().Get(fts.URL + "/pair?i=1&j=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(server.GenHeader) != "0" {
		t.Fatalf("routed response %s = %q, want \"0\"", server.GenHeader, resp.Header.Get(server.GenHeader))
	}
	if got := resp.Header.Get(server.ShardHeader); got != "a" && got != "b" && got != "c" {
		t.Fatalf("routed response %s = %q, want a shard name", server.ShardHeader, got)
	}
}

// TestRouterSourceBitIdentical: under either Mode value (Mode is
// ignored; the benchmark still sets Partitioned), exactly one shard
// computes each routed /source, no shard is asked for a part=, and the
// answer is bit-identical to the single-node answer.
func TestRouterSourceBitIdentical(t *testing.T) {
	single := newShard(t, "")
	var sources, parts atomic.Int32
	watch := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/source" {
				sources.Add(1)
				if r.URL.Query().Has("part") {
					parts.Add(1)
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	a, b, c := newShardVia(t, "a", watch), newShardVia(t, "b", watch), newShardVia(t, "c", watch)
	for _, mode := range []Mode{Replicated, Partitioned} {
		_, fts := newFleet(t, mode, a.URL, b.URL, c.URL)
		for _, node := range []int{3, 42, 180} {
			path := fmt.Sprintf("/source?node=%d&k=12", node)
			var want, got sourceBody
			getJSON(t, single, path, http.StatusOK, &want)
			sources.Store(0)
			getJSON(t, fts, path, http.StatusOK, &got)
			if n := sources.Load(); n != 1 {
				t.Fatalf("mode=%v %s: %d shards handled the request, want 1", mode, path, n)
			}
			if len(got.Results) != len(want.Results) {
				t.Fatalf("mode=%v %s: fleet returned %d results, single node %d",
					mode, path, len(got.Results), len(want.Results))
			}
			for i := range got.Results {
				if got.Results[i] != want.Results[i] {
					t.Fatalf("mode=%v %s result %d: fleet %+v != single node %+v",
						mode, path, i, got.Results[i], want.Results[i])
				}
			}
		}
	}
	if n := parts.Load(); n != 0 {
		t.Fatalf("the router sent part= to shards %d times", n)
	}
}

// TestRouterSourceOneEstimator: /source has one estimator on every
// shard, so in both modes the router relays a shard's refusal of an
// adaptive or pull /source as the final 400 (no failover: every replica
// would say the same), and its answers carry no estimator field.
func TestRouterSourceOneEstimator(t *testing.T) {
	a, b := newShard(t, "a"), newShard(t, "b")
	for _, mode := range []Mode{Replicated, Partitioned} {
		rt, fts := newFleet(t, mode, a.URL, b.URL)
		var eb struct {
			Error string `json:"error"`
		}
		getJSON(t, fts, "/source?node=3&epsilon=0.1", http.StatusBadRequest, &eb)
		if !strings.Contains(eb.Error, "/source runs the fixed walker budget") {
			t.Fatalf("mode=%v: relayed refusal %q lost the shard's reason", mode, eb.Error)
		}
		getJSON(t, fts, "/source?node=3&mode=pull", http.StatusBadRequest, nil)
		if st := rt.StatsSnapshot(); st.Failovers != 0 || st.ShardErrors != 0 {
			t.Fatalf("mode=%v: a 400 cost %d failovers, %d shard errors", mode, st.Failovers, st.ShardErrors)
		}
		var raw map[string]any
		getJSON(t, fts, "/source?node=3&k=5", http.StatusOK, &raw)
		if _, ok := raw["mode"]; ok {
			t.Fatalf("mode=%v: routed /source body still carries mode: %v", mode, raw)
		}
	}
}

// TestRouterPairsBatch: a routed batch goes to one shard whole and
// matches single-node scores.
func TestRouterPairsBatch(t *testing.T) {
	single := newShard(t, "")
	a, b := newShard(t, "a"), newShard(t, "b")
	_, fts := newFleet(t, Replicated, a.URL, b.URL)
	const body = `{"pairs":[[1,2],[3,4],[9,9],[150,6]]}`
	var want, got pairsBody
	postJSON(t, single, "/pairs", body, http.StatusOK, &want)
	postJSON(t, fts, "/pairs", body, http.StatusOK, &got)
	if len(got.Scores) != len(want.Scores) {
		t.Fatalf("fleet returned %d scores, want %d", len(got.Scores), len(want.Scores))
	}
	for i := range got.Scores {
		if got.Scores[i] != want.Scores[i] {
			t.Fatalf("score %d: fleet %v != single node %v", i, got.Scores[i], want.Scores[i])
		}
	}
}

// TestRouterFailover: killing a shard mid-fleet produces zero
// client-visible errors — every query lands on a surviving replica.
func TestRouterFailover(t *testing.T) {
	a, b, c := newShard(t, "a"), newShard(t, "b"), newShard(t, "c")
	rt, fts := newFleet(t, Replicated, a.URL, b.URL, c.URL)
	b.Close() // hard kill: connections now refused

	for i := 0; i < 40; i++ {
		var pb pairBody
		getJSON(t, fts, fmt.Sprintf("/pair?i=%d&j=%d", i, i+40), http.StatusOK, &pb)
	}
	var sb sourceBody
	getJSON(t, fts, "/source?node=17&k=8", http.StatusOK, &sb)

	st := rt.StatsSnapshot()
	if st.Failovers == 0 {
		t.Fatal("40 pair queries over a 3-shard ring with one dead shard never failed over")
	}
	// The dead shard is marked down after the first refused connection.
	var hz routerHealthz
	getJSON(t, fts, "/healthz", http.StatusOK, &hz)
	down := 0
	for _, sh := range hz.Shards {
		if !sh.Up {
			down++
		}
	}
	if down != 1 || hz.Status != "degraded" {
		t.Fatalf("healthz after kill: status=%q down=%d, want degraded with 1 down", hz.Status, down)
	}
}

// TestRouterBadRequests: router-side validation rejects garbage before
// any shard is bothered; shard-side 4xxs relay through verbatim.
func TestRouterBadRequests(t *testing.T) {
	a := newShard(t, "a")
	_, fts := newFleet(t, Replicated, a.URL)
	for _, path := range []string{"/pair?i=x&j=2", "/pair?i=1", "/source?node=", "/source?node=1&k=-2"} {
		var e server.ErrorBody
		getJSON(t, fts, path, http.StatusBadRequest, &e)
		if e.Error == "" {
			t.Fatalf("GET %s: empty error body", path)
		}
	}
	// Out-of-range node: the shard's authoritative 400 passes through.
	var e server.ErrorBody
	getJSON(t, fts, "/pair?i=1&j=99999", http.StatusBadRequest, &e)
	if e.Error == "" {
		t.Fatal("shard 400 lost its error body in relay")
	}
	postJSON(t, fts, "/pairs", `{"pairs":[]}`, http.StatusBadRequest, nil)
	postJSON(t, fts, "/pairs", `{nope`, http.StatusBadRequest, nil)
}

// fakeShard is a scripted shard for failure paths real shards can't
// produce on demand: it serves /source answers whose generation comes
// from an atomic, and arbitrary bytes on /pair.
type fakeShard struct {
	ts        *httptest.Server
	gen       atomic.Uint64
	pair      atomic.Pointer[string] // nil → 404; else raw /pair body
	refreshes atomic.Int32           // POST /refresh calls served
	sources   atomic.Int32           // GET /source calls served
}

func newFakeShard(t *testing.T) *fakeShard {
	t.Helper()
	f := &fakeShard{}
	mux := http.NewServeMux()
	mux.HandleFunc("/refresh", func(w http.ResponseWriter, r *http.Request) {
		f.refreshes.Add(1)
		g := f.gen.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"gen":%d}`, g)
	})
	mux.HandleFunc("/source", func(w http.ResponseWriter, r *http.Request) {
		f.sources.Add(1)
		g := f.gen.Load()
		k, _ := strconv.Atoi(r.URL.Query().Get("k"))
		if k <= 0 {
			k = 20
		}
		// The score encodes the generation, so an answer from the wrong
		// snapshot is detectable.
		body := sourceBody{
			Node: 0, K: k, Gen: g,
			Results: []neighborWire{{Node: 1, Score: 0.05 * float64(g)}},
		}
		w.Header().Set(server.GenHeader, strconv.FormatUint(g, 10))
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(body)
	})
	mux.HandleFunc("/pair", func(w http.ResponseWriter, r *http.Request) {
		if s := f.pair.Load(); s != nil {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, *s)
			return
		}
		http.NotFound(w, r)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(server.GenHeader, strconv.FormatUint(f.gen.Load(), 10))
		io.WriteString(w, `{"status":"ok"}`)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// floorFleet is a two-replica fleet of scripted shards, both at gen 2,
// that has relayed one gen-2 /source?node=0 answer: its generation floor
// is 2. It returns the router, its server, and the key's owner and
// replica.
func floorFleet(t *testing.T) (*Router, *httptest.Server, *fakeShard, *fakeShard) {
	t.Helper()
	x, y := newFakeShard(t), newFakeShard(t)
	x.gen.Store(2)
	y.gen.Store(2)
	rt, fts := newFleet(t, Replicated, x.ts.URL, y.ts.URL)
	var sb sourceBody
	getJSON(t, fts, "/source?node=0&k=10", http.StatusOK, &sb)
	if sb.Gen != 2 {
		t.Fatalf("priming answer at gen %d, want 2", sb.Gen)
	}
	owner, replica := x, y
	if rt.ring.Owner(NodeKey(0)) != normalizeAddr(x.ts.URL) {
		owner, replica = y, x
	}
	owner.sources.Store(0)
	replica.sources.Store(0)
	return rt, fts, owner, replica
}

// TestFloorRetriesStaleOwner: after the router relayed a gen-2 answer,
// an owner that answers at gen 1 (it has not rolled yet, or restarted
// without its snapshot) is stale. The replica at gen 2 answers instead,
// as a free generation retry: no budget token, no failover.
func TestFloorRetriesStaleOwner(t *testing.T) {
	rt, fts, owner, replica := floorFleet(t)
	owner.gen.Store(1)
	before := rt.StatsSnapshot()
	var got sourceBody
	getJSON(t, fts, "/source?node=0&k=10", http.StatusOK, &got)
	if got.Gen != 2 || got.Results[0].Score != 0.05*2 {
		t.Fatalf("answered at gen %d (%+v) after the router relayed gen 2", got.Gen, got.Results)
	}
	if owner.sources.Load() != 1 || replica.sources.Load() != 1 {
		t.Fatalf("owner served %d, replica %d; want one each", owner.sources.Load(), replica.sources.Load())
	}
	st := rt.StatsSnapshot()
	if st.GenRetries != before.GenRetries+1 {
		t.Fatalf("gen_retries %d → %d, want +1", before.GenRetries, st.GenRetries)
	}
	if st.RetryTokens != before.RetryTokens || st.Failovers != before.Failovers {
		t.Fatalf("a stale reply cost tokens %v → %v, failovers %d → %d; want free",
			before.RetryTokens, st.RetryTokens, before.Failovers, st.Failovers)
	}
}

// TestFloorAllReplicasBehind503: when every replica is below the floor,
// the client gets a 503 with Retry-After, never the older body.
func TestFloorAllReplicasBehind503(t *testing.T) {
	_, fts, owner, replica := floorFleet(t)
	owner.gen.Store(1)
	replica.gen.Store(1)
	resp, err := fts.Client().Get(fts.URL + "/source?node=0&k=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e server.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decoding the refusal: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("status %d, Retry-After %q; want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(e.Error, "stale generation") {
		t.Fatalf("refusal %q does not name the stale generation", e.Error)
	}
}

// TestRouterMalformedShardBody: garbage from every replica becomes a
// clean 502 — never a relayed corrupt body, never a panic.
func TestRouterMalformedShardBody(t *testing.T) {
	f := newFakeShard(t)
	for _, garbage := range []string{`{"score": 1e9}`, `{"score": -3}`, `{trunc`, ``, `[]`, `{"score":"x"}`} {
		g := garbage
		f.pair.Store(&g)
		rt, err := New(Config{
			Shards: []string{f.ts.URL}, AttemptTimeout: 2 * time.Second,
			RetryBackoff: time.Millisecond, MaxPasses: 1, HealthInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		fts := httptest.NewServer(rt.Handler())
		var e server.ErrorBody
		getJSON(t, fts, "/pair?i=1&j=2", http.StatusBadGateway, &e)
		if garbage != `[]` && rt.StatsSnapshot().BadShardResponses == 0 && rt.StatsSnapshot().ShardErrors == 0 {
			t.Fatalf("garbage %q produced no bad-response counter", garbage)
		}
		fts.Close()
		rt.Close()
	}
}

// TestRouterJoinLeave: runtime membership changes reshape the ring and
// keep serving; the last shard cannot be removed.
func TestRouterJoinLeave(t *testing.T) {
	a, b, c := newShard(t, "a"), newShard(t, "b"), newShard(t, "c")
	_, fts := newFleet(t, Replicated, a.URL, b.URL)

	var hz routerHealthz
	getJSON(t, fts, "/healthz", http.StatusOK, &hz)
	if len(hz.Shards) != 2 {
		t.Fatalf("initial fleet has %d shards, want 2", len(hz.Shards))
	}
	postJSON(t, fts, "/fleet/join", fmt.Sprintf(`{"addr":%q}`, c.URL), http.StatusOK, &hz)
	if len(hz.Shards) != 3 {
		t.Fatalf("after join: %d shards, want 3", len(hz.Shards))
	}
	postJSON(t, fts, "/fleet/join", fmt.Sprintf(`{"addr":%q}`, c.URL), http.StatusConflict, nil)
	var pb pairBody
	getJSON(t, fts, "/pair?i=1&j=2", http.StatusOK, &pb)

	postJSON(t, fts, "/fleet/leave", fmt.Sprintf(`{"addr":%q}`, c.URL), http.StatusOK, &hz)
	if len(hz.Shards) != 2 {
		t.Fatalf("after leave: %d shards, want 2", len(hz.Shards))
	}
	postJSON(t, fts, "/fleet/leave", fmt.Sprintf(`{"addr":%q}`, c.URL), http.StatusNotFound, nil)
	postJSON(t, fts, "/fleet/leave", fmt.Sprintf(`{"addr":%q}`, a.URL), http.StatusOK, nil)
	postJSON(t, fts, "/fleet/leave", fmt.Sprintf(`{"addr":%q}`, b.URL), http.StatusConflict, nil)
	getJSON(t, fts, "/pair?i=1&j=2", http.StatusOK, &pb)
}

// TestRouterHealthProber: the background prober marks a killed shard
// down and a restarted one back up without any client traffic.
func TestRouterHealthProber(t *testing.T) {
	a, b := newShard(t, "a"), newShard(t, "b")
	rt, err := New(Config{
		Shards: []string{a.URL, b.URL}, AttemptTimeout: time.Second,
		RetryBackoff: time.Millisecond, HealthInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	b.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		down := 0
		for _, sh := range rt.shardHealths() {
			if !sh.Up {
				down++
			}
		}
		if down == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prober never marked the killed shard down")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterRejectsLikeShard: the router parses i, node and k with the
// shard's own helpers and runs the shard's request prologue
// (server.Admit), so a malformed request is refused at the router with
// exactly the status, words and Allow header the shard would have used.
func TestRouterRejectsLikeShard(t *testing.T) {
	shard := newShard(t, "a")
	_, fleet := newFleet(t, Partitioned, shard.URL, newShard(t, "b").URL)
	// Past the router's 16 MiB buffer, and far past a shard's /pairs limit.
	huge := `{"pairs":[` + strings.Repeat("[1,2],", maxShardBody/6) + `[1,2]]}`
	ask := func(ts *httptest.Server, method, path, body string) (status int, e server.ErrorBody, allow string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s %s: decoding error body: %v", method, path, err)
		}
		return resp.StatusCode, e, resp.Header.Get("Allow")
	}
	for _, c := range []struct {
		method, path, body string
		status             int
	}{
		{http.MethodGet, "/pair?i=zap&j=1", "", http.StatusBadRequest},
		{http.MethodGet, "/pair?j=1", "", http.StatusBadRequest},
		{http.MethodGet, "/source?node=zap", "", http.StatusBadRequest},
		{http.MethodGet, "/source?k=3", "", http.StatusBadRequest},
		{http.MethodGet, "/source?node=1&k=0", "", http.StatusBadRequest},
		{http.MethodGet, "/source?node=1&k=many", "", http.StatusBadRequest},
		{http.MethodGet, "/pair?i=1&j=2&timeout=banana", "", http.StatusBadRequest},
		{http.MethodPost, "/pair?i=1&j=2", "", http.StatusMethodNotAllowed},
		{http.MethodGet, "/pairs", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/pairs", huge, http.StatusRequestEntityTooLarge},
		{http.MethodPost, "/edges", huge, http.StatusRequestEntityTooLarge},
	} {
		shardStatus, fromShard, shardAllow := ask(shard, c.method, c.path, c.body)
		routerStatus, fromRouter, routerAllow := ask(fleet, c.method, c.path, c.body)
		if shardStatus != c.status || routerStatus != c.status {
			t.Errorf("%s %s: shard %d, router %d, want %d", c.method, c.path, shardStatus, routerStatus, c.status)
		}
		if fromShard.Error == "" || fromRouter.Error != fromShard.Error {
			t.Errorf("%s %s: router said %q, shard said %q", c.method, c.path, fromRouter.Error, fromShard.Error)
		}
		if routerAllow != shardAllow || (c.status == http.StatusMethodNotAllowed && routerAllow == "") {
			t.Errorf("%s %s: router Allow %q, shard Allow %q", c.method, c.path, routerAllow, shardAllow)
		}
	}
	// Neither tier routes /topk: top-k is /source?k=.
	for name, ts := range map[string]*httptest.Server{"shard": shard, "router": fleet} {
		resp, err := ts.Client().Get(ts.URL + "/topk?node=1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s GET /topk: status %d, want 404", name, resp.StatusCode)
		}
	}
}
