// Package oracle is the serving tier's one differential check. Every
// estimator a server answers with is deterministic per (query, seed,
// generation), so caching, coalescing, /pairs batching, snapshot
// restore, hot-swap and the fleet router may change latency but never an
// answer. Check asks a running tier (an in-process server, a router, a
// daemon) every query plan the tier accepts, in every way a client can
// ask it, and requires each answer to be the direct core or linserve
// call's, bit for bit.
//
// Only tests import it, so no binary links it. It imports core, linserve
// and sparse and no serving package, so the server's and the fleet's
// in-package tests can use it without an import cycle; for the same
// reason it keeps its own copy of the wire types and header names.
package oracle

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cloudwalker/internal/core"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/linserve"
	"cloudwalker/internal/sparse"
)

// Response headers of the shard protocol (server.GenHeader and
// server.BackendHeader).
const (
	genHeader     = "X-Cloudwalker-Gen"
	backendHeader = "X-Cloudwalker-Backend"
)

// Pair is a /pair answer on the wire.
type Pair struct {
	I         int     `json:"i"`
	J         int     `json:"j"`
	Score     float64 `json:"score"`
	Cached    bool    `json:"cached"`
	Gen       uint64  `json:"gen"`
	Backend   string  `json:"backend"`
	Epsilon   float64 `json:"epsilon,omitempty"`
	HalfWidth float64 `json:"half_width,omitempty"`
	Walkers   int     `json:"walkers,omitempty"`
	Stopped   bool    `json:"stopped,omitempty"`
}

// Pairs is a /pairs answer on the wire.
type Pairs struct {
	Scores   []float64      `json:"scores"`
	Hits     int            `json:"cache_hits"`
	Gen      uint64         `json:"gen"`
	Backends map[string]int `json:"backends"`
}

// Source is a /source answer on the wire.
type Source struct {
	Node    int             `json:"node"`
	K       int             `json:"k"`
	Part    string          `json:"part,omitempty"`
	Cached  bool            `json:"cached"`
	Gen     uint64          `json:"gen"`
	Backend string          `json:"backend"`
	Results []core.Neighbor `json:"results"`
}

// Get GETs url with c, requires status want and decodes the JSON body
// into v (when v is non-nil). It returns the response headers.
func Get(t testing.TB, c *http.Client, url string, want int, v any) http.Header {
	t.Helper()
	return call(t, c, http.MethodGet, url, "", want, v)
}

// Post is Get for a POST of a JSON body.
func Post(t testing.TB, c *http.Client, url, body string, want int, v any) http.Header {
	t.Helper()
	return call(t, c, http.MethodPost, url, body, want, v)
}

func call(t testing.TB, c *http.Client, method, url, body string, want int, v any) http.Header {
	t.Helper()
	status, hdr, raw, err := send(c, method, url, body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	if status != want {
		t.Fatalf("%s %s: status %d, want %d; body %s", method, url, status, want, raw)
	}
	if v != nil {
		if err := decode(hdr, raw, v); err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
	}
	return hdr
}

// send performs one request and reads the whole body.
func send(c *http.Client, method, url, body string) (int, http.Header, []byte, error) {
	var rd io.Reader
	if method == http.MethodPost {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, raw, err
}

func decode(hdr http.Header, raw []byte, v any) error {
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		return fmt.Errorf("content type %q, want application/json", ct)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("decoding %s: %v", raw, err)
	}
	return nil
}

// WriteArtifacts writes q's graph as a text edge list and its index into
// dir: the -graph and -index files cloudwalkerd starts from.
func WriteArtifacts(dir string, q *core.Querier) (graphPath, indexPath string, err error) {
	var b bytes.Buffer
	if err := graph.WriteEdgeList(&b, q.Graph()); err != nil {
		return "", "", err
	}
	graphPath, indexPath = filepath.Join(dir, "graph.el"), filepath.Join(dir, "index.cw")
	if err := os.WriteFile(graphPath, b.Bytes(), 0o644); err != nil {
		return "", "", err
	}
	b.Reset()
	if err := q.Index().Save(&b); err != nil {
		return "", "", err
	}
	return graphPath, indexPath, os.WriteFile(indexPath, b.Bytes(), 0o644)
}

// Queries is what Check asks: near pairs (canonical, distinct), sources
// with in-links, the top-k size and the adaptive pair target.
type Queries struct {
	Pairs   [][2]int
	Sources []int
	K       int
	Eps     float64
}

// Sample draws n near pairs and n sources from q's graph, seeded. A near
// pair shares an in-neighbour: on the small test graphs a third of
// uniform pairs score exactly 0, and a tier that wrongly answered 0
// would pass on them. A source has an in-link, so its series has terms.
func Sample(q *core.Querier, seed uint64, n int) Queries {
	g := q.Graph()
	rng := rand.New(rand.NewPCG(seed, 0))
	qs := Queries{K: 10, Eps: 0.2}
	seen := make(map[[2]int]bool)
	for tries := 0; len(qs.Pairs) < n && tries < 100*n; tries++ {
		out := g.OutNeighbors(rng.IntN(g.NumNodes()))
		if len(out) < 2 {
			continue
		}
		a, b := rng.IntN(len(out)), rng.IntN(len(out)-1)
		if b >= a {
			b++
		}
		i, j := core.CanonicalPair(int(out[a]), int(out[b]))
		if !seen[[2]int{i, j}] {
			seen[[2]int{i, j}] = true
			qs.Pairs = append(qs.Pairs, [2]int{i, j})
		}
	}
	picked := make(map[int]bool)
	for tries := 0; len(qs.Sources) < n && tries < 100*n; tries++ {
		if v := rng.IntN(g.NumNodes()); g.InDegree(v) > 0 && !picked[v] {
			picked[v] = true
			qs.Sources = append(qs.Sources, v)
		}
	}
	return qs
}

// Ref is what a tier must answer: the direct calls of the querier and the
// linearized engine it serves (Lin nil: the tier has none, and
// backend=lin must be refused with 400), at generation Gen.
type Ref struct {
	Q   *core.Querier
	Lin *linserve.Engine
	Gen uint64
}

// pairPlan is one pair query: the path a client sends first, an alias
// spelling the same plan another way, and the answer both must get.
type pairPlan struct {
	path, alias string
	want        Pair
}

// sourcePlan is pairPlan for /source.
type sourcePlan struct {
	path, alias string
	want        Source
}

// batch is one /pairs body (one backend and ε for every pair) and the
// score each position must get.
type batch struct {
	body, backend string
	want          []float64
}

// Check asks base every plan the serving tier's resolve accepts for qs:
// for each pair a Monte Carlo answer at the fixed budget and at ε =
// qs.Eps, and a linearized one; for each source a Monte Carlo and a
// linearized top-k; a self pair; and the first source split into
// part=i/3 on each backend. Each pair and source plan is answered cold,
// again under an alias spelling (every repeat a cache hit, or none), with
// the pair reversed, inside one shuffled /pairs batch per pair plan with
// duplicates, and by a concurrent herd that repeats every request. Every
// answer must equal ref's direct call bit for bit, carry ref.Gen in the
// generation header and body and the backend it was asked for in the
// backend header and body, score s(i,i) = 1 and every score in [0,1],
// and list a source's top-k sorted by descending score, without the
// source itself, k entries at most. Without ref.Lin, backend=lin must be
// refused with a 400 that names it.
func Check(t testing.TB, c *http.Client, base string, ref Ref, qs Queries) {
	t.Helper()
	if len(qs.Pairs) == 0 || len(qs.Sources) == 0 {
		t.Fatalf("oracle: %d pairs and %d sources to ask; the sample found too few", len(qs.Pairs), len(qs.Sources))
	}
	ctx := context.Background()
	backends := []string{"mc"}
	if ref.Lin != nil {
		backends = append(backends, "lin")
	}
	self := qs.Sources[0]
	rng := rand.New(rand.NewPCG(1, 2)) // shuffles the batches
	var pairs []pairPlan
	var batches []batch
	for _, kind := range []struct {
		backend string
		eps     float64
	}{{"mc", 0}, {"mc", qs.Eps}, {"lin", 0}} {
		if kind.backend == "lin" && ref.Lin == nil {
			continue
		}
		spell := func(p [2]int) (path, alias string) {
			path = fmt.Sprintf("/pair?i=%d&j=%d", p[0], p[1])
			switch {
			case kind.backend == "lin":
				return path + "&backend=lin", path + "&backend=lin&epsilon=0"
			case kind.eps > 0:
				e := strconv.FormatFloat(kind.eps, 'g', -1, 64)
				return path + "&epsilon=" + e, path + "&backend=mc&epsilon=" + e + "&delta=0.05"
			}
			return path, path + "&backend=mc&epsilon=0"
		}
		list := qs.Pairs
		if kind.backend == "mc" && kind.eps == 0 {
			list = append([][2]int{{self, self}}, list...)
		}
		var bpairs [][2]int
		var bwant []float64
		for _, p := range list {
			want := Pair{I: p[0], J: p[1], Gen: ref.Gen, Backend: kind.backend}
			if kind.backend == "lin" {
				s, err := ref.Lin.SinglePairCtx(ctx, p[0], p[1], ref.Lin.Options().PruneEps)
				if err != nil {
					t.Fatalf("oracle: lin pair %v: %v", p, err)
				}
				want.Score = s
			} else {
				pe, err := ref.Q.SinglePairAdaptiveCtx(ctx, p[0], p[1], kind.eps, 0.05)
				if err != nil {
					t.Fatalf("oracle: pair %v: %v", p, err)
				}
				want.Score = pe.Score
				if kind.eps > 0 {
					want.Epsilon, want.HalfWidth, want.Walkers, want.Stopped = kind.eps, pe.HalfWidth, pe.Walkers, pe.Stopped
				}
			}
			if p[0] == p[1] && want.Score != 1 {
				t.Fatalf("oracle: reference s(%d,%d) = %v, want 1", p[0], p[1], want.Score)
			}
			path, alias := spell(p)
			pairs = append(pairs, pairPlan{path, alias, want})
			// The batch asks each pair as written, reversed, and twice more.
			rev := [2]int{p[1], p[0]}
			bpairs = append(bpairs, p, rev, p, rev)
			bwant = append(bwant, want.Score, want.Score, want.Score, want.Score)
		}
		rng.Shuffle(len(bpairs), func(a, b int) {
			bpairs[a], bpairs[b] = bpairs[b], bpairs[a]
			bwant[a], bwant[b] = bwant[b], bwant[a]
		})
		body, _ := json.Marshal(struct {
			Pairs   [][2]int `json:"pairs"`
			Epsilon float64  `json:"epsilon,omitempty"`
			Backend string   `json:"backend"`
		}{bpairs, kind.eps, kind.backend})
		batches = append(batches, batch{string(body), kind.backend, bwant})
	}

	var sources []sourcePlan
	vecs := make(map[string]map[int32]float64) // the first source's full vector per backend
	for _, backend := range backends {
		for n, v := range qs.Sources {
			var vec sparse.Vector
			var err error
			if backend == "lin" {
				err = ref.Lin.SingleSourceInto(ctx, v, ref.Lin.Options().PruneEps, &vec)
			} else {
				err = ref.Q.ServedSourceInto(ctx, v, &vec)
			}
			if err != nil {
				t.Fatalf("oracle: %s source %d: %v", backend, v, err)
			}
			want := Source{Node: v, K: qs.K, Gen: ref.Gen, Backend: backend}
			want.Results = core.TopKNeighbors(&vec, v, qs.K)
			path := fmt.Sprintf("/source?node=%d&k=%d", v, qs.K)
			if backend == "lin" {
				path += "&backend=lin"
			}
			sources = append(sources, sourcePlan{path, path + "&backend=" + backend + "&epsilon=0", want})
			if n == 0 {
				vecs[backend] = make(map[int32]float64, len(vec.Idx))
				for x, node := range vec.Idx {
					vecs[backend][node] = vec.Val[x]
				}
			}
		}
	}

	ask := &asker{c: c, base: base, gen: ref.Gen}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Cold.
	for _, p := range pairs {
		_, err := ask.pair(p.path, p.want)
		must(err)
	}
	for _, p := range sources {
		_, err := ask.source(p.path, p.want)
		must(err)
	}
	// Again, spelled another way, and reversed: every one a hit, or none.
	var cached *bool
	same := func(path string, hit bool) {
		t.Helper()
		if cached == nil {
			cached = &hit
		}
		if hit != *cached {
			t.Fatalf("GET %s: cached = %v, but an earlier repeat said %v", path, hit, *cached)
		}
	}
	for _, p := range pairs {
		got, err := ask.pair(p.alias, p.want)
		must(err)
		same(p.alias, got.Cached)
		rev := p.want
		rev.I, rev.J = p.want.J, p.want.I
		path := strings.Replace(p.path, fmt.Sprintf("i=%d&j=%d", p.want.I, p.want.J), fmt.Sprintf("i=%d&j=%d", rev.I, rev.J), 1)
		got, err = ask.pair(path, rev)
		must(err)
		same(path, got.Cached)
	}
	for _, p := range sources {
		got, err := ask.source(p.alias, p.want)
		must(err)
		same(p.alias, got.Cached)
	}
	for _, b := range batches {
		must(ask.batch(b))
	}
	// The first source, split three ways on each backend: each part holds
	// the full vector's own scores, no node is in two parts, and the parts
	// merged in TopKNeighbors' order are the whole answer.
	for n, backend := range backends {
		whole := sources[n*len(qs.Sources)].want
		var merged []core.Neighbor
		inPart := make(map[int32]int)
		for part := 0; part < 3; part++ {
			path := fmt.Sprintf("/source?node=%d&k=%d&backend=%s&part=%d/3", whole.Node, qs.K, backend, part)
			want := whole
			want.Part, want.Results = fmt.Sprintf("%d/3", part), nil
			got, err := ask.source(path, want)
			must(err)
			for _, nb := range got.Results {
				if s, ok := vecs[backend][nb.Node]; !ok || math.Float64bits(s) != math.Float64bits(nb.Score) {
					t.Fatalf("GET %s: node %d scored %v, the full vector %v (present %v)", path, nb.Node, nb.Score, s, ok)
				}
				if prev, ok := inPart[nb.Node]; ok {
					t.Fatalf("GET %s: node %d is in parts %d and %d", path, nb.Node, prev, part)
				}
				inPart[nb.Node] = part
			}
			merged = append(merged, got.Results...)
		}
		sort.Slice(merged, func(a, b int) bool {
			if merged[a].Score != merged[b].Score {
				return merged[a].Score > merged[b].Score
			}
			return merged[a].Node < merged[b].Node
		})
		if err := sameResults(merged[:min(len(merged), qs.K)], whole.Results); err != nil {
			t.Fatalf("node %d on %s: three parts merged: %v", whole.Node, backend, err)
		}
	}
	if ref.Lin == nil {
		p := qs.Pairs[0]
		for _, path := range []string{fmt.Sprintf("/pair?i=%d&j=%d&backend=lin", p[0], p[1]), fmt.Sprintf("/source?node=%d&backend=lin", self)} {
			var e struct{ Error string }
			Get(t, c, base+path, http.StatusBadRequest, &e)
			if !strings.Contains(e.Error, "lin") {
				t.Fatalf("GET %s without a lin engine: refusal %q does not name lin", path, e.Error)
			}
		}
		Post(t, c, base+"/pairs", fmt.Sprintf(`{"pairs":[[%d,%d]],"backend":"lin"}`, p[0], p[1]), http.StatusBadRequest, nil)
	}
	// The herd: every request again, from several clients at once, each
	// starting at a different plan.
	const herd = 4
	var wg sync.WaitGroup
	for h := 0; h < herd; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for n := range pairs {
				p := pairs[(n+h*len(pairs)/herd)%len(pairs)]
				if _, err := ask.pair(p.path, p.want); err != nil {
					t.Error(err)
					return
				}
			}
			for n := range sources {
				p := sources[(n+h)%len(sources)]
				if _, err := ask.source(p.path, p.want); err != nil {
					t.Error(err)
					return
				}
			}
			if err := ask.batch(batches[h%len(batches)]); err != nil {
				t.Error(err)
			}
		}(h)
	}
	wg.Wait()
}

// asker sends one request and judges the answer against a want, without
// touching the test: the herd runs it off the test's goroutine.
type asker struct {
	c    *http.Client
	base string
	gen  uint64
}

// get fetches path, requiring a 200 at the reference generation answered
// by backend, and decodes it into v.
func (a *asker) get(method, path, body, backend string, v any) error {
	status, hdr, raw, err := send(a.c, method, a.base+path, body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d; body %s", status, raw)
	}
	if err == nil {
		err = decode(hdr, raw, v)
	}
	if err == nil && hdr.Get(genHeader) != strconv.FormatUint(a.gen, 10) {
		err = fmt.Errorf("%s %q, want %d", genHeader, hdr.Get(genHeader), a.gen)
	}
	if err == nil && hdr.Get(backendHeader) != backend {
		err = fmt.Errorf("%s %q, want %s", backendHeader, hdr.Get(backendHeader), backend)
	}
	if err != nil {
		return fmt.Errorf("%s %s: %v", method, path, err)
	}
	return nil
}

func (a *asker) pair(path string, want Pair) (Pair, error) {
	var got Pair
	if err := a.get(http.MethodGet, path, "", want.Backend, &got); err != nil {
		return got, err
	}
	cmp := got
	cmp.Cached = false
	if cmp != want || math.Float64bits(got.Score) != math.Float64bits(want.Score) {
		return got, fmt.Errorf("GET %s: %+v, want %+v", path, got, want)
	}
	if !(got.Score >= 0 && got.Score <= 1) {
		return got, fmt.Errorf("GET %s: score %v outside [0,1]", path, got.Score)
	}
	return got, nil
}

func (a *asker) source(path string, want Source) (Source, error) {
	var got Source
	if err := a.get(http.MethodGet, path, "", want.Backend, &got); err != nil {
		return got, err
	}
	if got.Node != want.Node || got.K != want.K || got.Part != want.Part || got.Gen != want.Gen || got.Backend != want.Backend {
		return got, fmt.Errorf("GET %s: answered node %d k %d part %q gen %d backend %q, want %d %d %q %d %q",
			path, got.Node, got.K, got.Part, got.Gen, got.Backend, want.Node, want.K, want.Part, want.Gen, want.Backend)
	}
	if len(got.Results) > want.K {
		return got, fmt.Errorf("GET %s: %d results for k = %d", path, len(got.Results), want.K)
	}
	for n, nb := range got.Results {
		switch {
		case int(nb.Node) == want.Node:
			return got, fmt.Errorf("GET %s: the source lists itself", path)
		case !(nb.Score >= 0 && nb.Score <= 1):
			return got, fmt.Errorf("GET %s: node %d scored %v, outside [0,1]", path, nb.Node, nb.Score)
		case n > 0 && nb.Score > got.Results[n-1].Score:
			return got, fmt.Errorf("GET %s: results not sorted at %d", path, n)
		}
	}
	if want.Part == "" {
		if err := sameResults(got.Results, want.Results); err != nil {
			return got, fmt.Errorf("GET %s: %v", path, err)
		}
	}
	return got, nil
}

func (a *asker) batch(b batch) error {
	var got Pairs
	if err := a.get(http.MethodPost, "/pairs", b.body, b.backend, &got); err != nil {
		return err
	}
	if got.Gen != a.gen || len(got.Backends) != 1 || got.Backends[b.backend] != len(b.want) {
		return fmt.Errorf("POST /pairs %s: gen %d backends %v, want %d and %d %s", b.body, got.Gen, got.Backends, a.gen, len(b.want), b.backend)
	}
	if len(got.Scores) != len(b.want) {
		return fmt.Errorf("POST /pairs %s: %d scores, want %d", b.body, len(got.Scores), len(b.want))
	}
	for n, s := range got.Scores {
		if math.Float64bits(s) != math.Float64bits(b.want[n]) {
			return fmt.Errorf("POST /pairs %s: score %d = %v, want %v", b.body, n, s, b.want[n])
		}
	}
	return nil
}

// sameResults reports whether two top-k lists hold the same entries, bit
// for bit.
func sameResults(got, want []core.Neighbor) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d: %v, want %v", len(got), len(want), got, want)
	}
	for n := range got {
		if got[n].Node != want[n].Node || math.Float64bits(got[n].Score) != math.Float64bits(want[n].Score) {
			return fmt.Errorf("result %d is %+v, want %+v", n, got[n], want[n])
		}
	}
	return nil
}
