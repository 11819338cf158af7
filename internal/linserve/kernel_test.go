package linserve

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"cloudwalker/internal/exact"
	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/sparse"
)

// forceDirection pins every matvec to one direction for the rest of the
// test: 0 pulls every level, +Inf pushes every level.
func forceDirection(t *testing.T, at float64) {
	t.Helper()
	old := pullAt
	pullAt = at
	t.Cleanup(func() { pullAt = old })
}

var directions = []struct {
	name string
	at   float64
}{{"push", math.Inf(1)}, {"pull", 0}, {"switching", pullAt}}

// kernelGraphs are the families the two directions must agree on: skewed
// (RMAT), one hub (Star), citation-like (Copying), and a hand-made graph
// with self-loops, duplicate input edges, dangling and isolated nodes.
func kernelGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	must := func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	b := graph.NewBuilder(12).KeepSelfLoops()
	for _, e := range [][2]int{
		{0, 1}, {0, 1}, {0, 1}, // multi-edge input
		{1, 1}, {2, 2}, // self-loops
		{1, 2}, {2, 3}, {3, 1}, {4, 1}, {4, 2}, {5, 4}, {6, 4}, {6, 5}, {3, 6}, {7, 3},
		{8, 9}, // 8 dangling (no in-links), 9 a sink; 10 and 11 isolated
	} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]*graph.Graph{
		"rmat":    must(gen.RMAT(300, 2400, gen.DefaultRMAT, 5)),
		"star":    must(gen.Star(40)),
		"copying": must(gen.Copying(200, 4, 0.5, 9)),
		"odd":     must(b.Build()),
	}
}

type frozen struct {
	idx []int32
	val []float64
}

func freeze(f *frontier) frozen {
	z := frozen{idx: slices.Clone(f.nodes)}
	for _, i := range z.idx {
		z.val = append(z.val, f.val[i])
	}
	return z
}

func (z frozen) thaw(f *frontier) {
	f.clear()
	for k, i := range z.idx {
		f.val[i] = z.val[k]
		f.nodes = append(f.nodes, i)
	}
}

// sameVector checks that f has push's support and values within 1e-15 of
// the level's mass, that it is dense-consistent (zero outside its support,
// positive inside, no node listed twice), and that the step's scratch went
// back zeroed.
func sameVector(t *testing.T, what string, ws *workspace, f *frontier, push frozen) {
	t.Helper()
	mass := 0.0
	want := make(map[int32]float64, len(push.idx))
	for k, i := range push.idx {
		want[i] = push.val[k]
		mass += push.val[k]
	}
	if len(f.nodes) != len(want) {
		t.Fatalf("%s: pull keeps %d entries, push %d", what, len(f.nodes), len(want))
	}
	listed := 0
	for i, v := range f.val {
		w, ok := want[int32(i)]
		if ok != (v != 0) || v < 0 {
			t.Fatalf("%s: node %d: pull %g, push %g (listed %v)", what, i, v, w, ok)
		}
		if math.Abs(v-w) > 1e-15*mass {
			t.Fatalf("%s: node %d: pull %g, push %g, level mass %g", what, i, v, w, mass)
		}
		if slices.Contains(f.nodes, int32(i)) {
			listed++
		}
	}
	if listed != len(f.nodes) {
		t.Fatalf("%s: support lists a node twice or a zero entry", what)
	}
	for i, v := range f.acc {
		if v != 0 {
			t.Fatalf("%s: scratch[%d] = %g after the step", what, i, v)
		}
	}
}

// TestPullRowsMatchSortedConstruction checks both pull layouts of every
// kernel graph against the construction they replaced: the non-empty
// rows, stably sorted by length, then laid out in that order.
func TestPullRowsMatchSortedConstruction(t *testing.T) {
	for name, g := range kernelGraphs(t) {
		for dir, c := range map[string]struct {
			got *graph.PullRows
			row func(int) []int32
		}{"out": {g.OutRows(), g.OutNeighbors}, "in": {g.InRows(), g.InNeighbors}} {
			var want graph.PullRows
			for v := 0; v < g.NumNodes(); v++ {
				if len(c.row(v)) > 0 {
					want.Node = append(want.Node, int32(v))
				}
			}
			slices.SortStableFunc(want.Node, func(a, b int32) int { return len(c.row(int(a))) - len(c.row(int(b))) })
			for _, v := range want.Node {
				want.Deg = append(want.Deg, int32(len(c.row(int(v)))))
				want.Adj = append(want.Adj, c.row(int(v))...)
			}
			if !slices.Equal(c.got.Node, want.Node) || !slices.Equal(c.got.Deg, want.Deg) || !slices.Equal(c.got.Adj, want.Adj) {
				t.Errorf("%s %s rows: got %+v, want %+v", name, dir, *c.got, want)
			}
		}
	}
}

// TestPushPullAgree: from the same input, a pushed and a pulled level are
// the same vector — same support after pruning, values equal to
// reassociation — for P and for the Horner step over Pᵀ, level after level
// from a one-node frontier to a saturated one, so both sides of the
// crossover are covered in both directions.
func TestPushPullAgree(t *testing.T) {
	forceDirection(t, pullAt) // the loops below overwrite it: restore on exit
	for name, g := range kernelGraphs(t) {
		for _, eps := range []float64{0, 1.3e-4} {
			ws := newWorkspace(g)
			diag := make([]float64, g.NumNodes())
			for i := range diag {
				diag[i] = 0.3 + 0.5*float64(i%7)/7
			}
			for q := 0; q < g.NumNodes(); q += 1 + g.NumNodes()/9 {
				f := &ws.a
				f.init(q)
				ws.levels = ws.levels[:0]
				snapshot(ws, f, diag)
				for lvl := 1; lvl <= 6 && len(f.nodes) > 0; lvl++ {
					in := freeze(f)
					pullAt = math.Inf(1)
					ws.stepP(f, eps)
					push := freeze(f)
					in.thaw(f)
					pullAt = 0
					ws.stepP(f, eps)
					sameVector(t, name+" P", ws, f, push)
					snapshot(ws, f, diag)
				}
				f.clear()
				for lvl := len(ws.levels) - 1; lvl >= 0; lvl-- {
					in := freeze(f)
					pullAt = math.Inf(1)
					ws.stepPT(f, &ws.levels[lvl], 0.6, eps)
					push := freeze(f)
					in.thaw(f)
					pullAt = 0
					ws.stepPT(f, &ws.levels[lvl], 0.6, eps)
					sameVector(t, name+" PT", ws, f, push)
				}
				f.clear()
			}
		}
	}
}

// snapshot appends D·f to ws.levels, as SingleSourceInto's forward pass
// does.
func snapshot(ws *workspace, f *frontier, diag []float64) {
	var lv level
	for _, i := range f.nodes {
		if d := diag[i] * f.val[i]; d != 0 {
			lv.idx = append(lv.idx, i)
			lv.val = append(lv.val, d)
		}
	}
	ws.levels = append(ws.levels, lv)
}

// TestStepPairMatchesStepP: a pair level stepped as SinglePairCtx steps it
// — both sides in one pass where both pull, each alone otherwise — leaves
// both staged frontiers bit for bit where two single stepPs leave them
// (same support in the same order, same bits at every index, zeroed
// scratch), prices the next level alike, and its dot term is
// weightedDot's, level after level until a side empties.
func TestStepPairMatchesStepP(t *testing.T) {
	for name, g := range kernelGraphs(t) {
		n := g.NumNodes()
		diag := make([]float64, n)
		for i := range diag {
			diag[i] = 0.3 + 0.5*float64(i%7)/7
		}
		for _, eps := range []float64{0, 1.3e-4} {
			for _, dir := range directions[1:] {
				t.Run(fmt.Sprintf("%s/eps=%g/%s", name, eps, dir.name), func(t *testing.T) {
					forceDirection(t, dir.at)
					ws, ref := newWorkspace(g), newWorkspace(g)
					a, b, refA, refB := &ws.a, &ws.b, &ref.a, &ref.b
					fused := 0
					for i := 0; i < n; i += 1 + n/9 {
						j := (i*7 + 3) % n
						a.init(i)
						b.init(j)
						refA.init(i)
						refB.init(j)
						workA, workB := ws.stage(a), ws.stage(b)
						wantA, wantB := ref.stage(refA), ref.stage(refB)
						for lvl := 1; lvl <= 8; lvl++ {
							var dot float64
							if ws.pulls(workA) && ws.pulls(workB) {
								dot, workA, workB = ws.stepPair(a, b, diag, eps)
								fused++
							} else {
								ws.spread(a, workA, eps)
								ws.spread(b, workB, eps)
								dot = weightedDot(a, b, diag)
								workA, workB = ws.stage(a), ws.stage(b)
							}
							ref.spread(refA, wantA, eps)
							ref.spread(refB, wantB, eps)
							want := weightedDot(refA, refB, diag)
							if math.Float64bits(dot) != math.Float64bits(want) {
								t.Fatalf("pair (%d,%d) level %d: dot %g, two stepPs %g", i, j, lvl, dot, want)
							}
							wantA, wantB = ref.stage(refA), ref.stage(refB)
							sameStaged(t, fmt.Sprintf("pair (%d,%d) level %d side a", i, j, lvl), a, refA, workA, wantA)
							sameStaged(t, fmt.Sprintf("pair (%d,%d) level %d side b", i, j, lvl), b, refB, workB, wantB)
							if len(a.nodes) == 0 || len(b.nodes) == 0 {
								break
							}
						}
						for _, f := range []*frontier{a, b, refA, refB} {
							f.clear()
						}
					}
					if dir.at == 0 && fused == 0 {
						t.Fatal("no level ran the two-frontier step")
					}
				})
			}
		}
	}
}

// sameStaged checks that f and want are the same staged frontier bit for
// bit, with the same push cost, and that f's step scratch went back zeroed.
func sameStaged(t *testing.T, what string, f, want *frontier, work, wantWork int) {
	t.Helper()
	if work != wantWork {
		t.Fatalf("%s: next push reads %d entries, want %d", what, work, wantWork)
	}
	if !slices.Equal(f.nodes, want.nodes) {
		t.Fatalf("%s: support %v, want %v", what, f.nodes, want.nodes)
	}
	for i := range f.val {
		if math.Float64bits(f.val[i]) != math.Float64bits(want.val[i]) {
			t.Fatalf("%s: node %d holds %g, want %g", what, i, f.val[i], want.val[i])
		}
		if f.acc[i] != 0 {
			t.Fatalf("%s: scratch[%d] = %g after the step", what, i, f.acc[i])
		}
	}
}

// TestDirectionsAnswerAlike: whole queries agree whichever direction every
// level is forced to, and the unforced engine is one of them level by
// level, so it agrees with both.
func TestDirectionsAnswerAlike(t *testing.T) {
	for name, g := range kernelGraphs(t) {
		opts := testOptions()
		opts.PruneEps = 1.3e-4
		e, err := Build(g, opts)
		if err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		n := g.NumNodes()
		var pairs [3][]float64
		var rows [3][]float64
		for d, dir := range directions {
			t.Run(name+"/"+dir.name, func(t *testing.T) {
				forceDirection(t, dir.at)
				for i := 0; i < n; i += 1 + n/17 {
					s, err := e.SinglePair(i, (i*7+3)%n)
					if err != nil {
						t.Fatal(err)
					}
					pairs[d] = append(pairs[d], s)
					v, err := e.SingleSource(i)
					if err != nil {
						t.Fatal(err)
					}
					if err := v.Validate(); err != nil {
						t.Fatalf("source %d: %v", i, err)
					}
					rows[d] = append(rows[d], v.Dense(n)...)
				}
			})
		}
		for d := 1; d < 3; d++ {
			for k := range pairs[0] {
				if math.Abs(pairs[d][k]-pairs[0][k]) > 1e-14 {
					t.Fatalf("%s: pair %d: %s %g, push %g", name, k, directions[d].name, pairs[d][k], pairs[0][k])
				}
			}
			for k := range rows[0] {
				if math.Abs(rows[d][k]-rows[0][k]) > 1e-14 {
					t.Fatalf("%s: source entry %d: %s %g, push %g", name, k, directions[d].name, rows[d][k], rows[0][k])
				}
			}
		}
	}
}

// TestPrunedSeriesAgainstExact: with the benchmark's thresholds the served
// answers stay within 1e-4 of the dense series over the same diagonal, on
// a graph big enough that both directions run inside one query.
func TestPrunedSeriesAgainstExact(t *testing.T) {
	g := testGraph(t, 400, 3200, 23)
	opts := Options{C: 0.6, T: 10, Sweeps: 5, Workers: 2, BuildPruneEps: 1e-6, PruneEps: 1e-4}
	e, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ref, err := exact.FromDiagonal(g, opts.C, opts.T, e.Diag())
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	for i := 0; i < n; i += 3 {
		j := (i*11 + 5) % n
		if i == j {
			continue
		}
		got, err := e.SinglePair(i, j)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(got - ref.At(i, j)); d > 1e-4 {
			t.Fatalf("pair (%d,%d): %g, dense series %g", i, j, got, ref.At(i, j))
		}
	}
	for q := 0; q < n; q += 19 {
		v, err := e.SingleSource(q)
		if err != nil {
			t.Fatal(err)
		}
		for j, got := range v.Dense(n) {
			if j != q && math.Abs(got-ref.At(q, j)) > 1e-4 {
				t.Fatalf("source %d entry %d: %g, dense series %g", q, j, got, ref.At(q, j))
			}
		}
	}
	// Both directions served those answers: one query reads neither what
	// it reads all pushed nor what it reads all pulled.
	read := func(at float64) int64 {
		old := pullAt
		pullAt = at
		defer func() { pullAt = old }()
		before := e.EdgesTraversed()
		if _, err := e.SingleSource(0); err != nil {
			t.Fatal(err)
		}
		return e.EdgesTraversed() - before
	}
	if mixed, push, pull := read(pullAt), read(math.Inf(1)), read(0); mixed == push || mixed == pull {
		t.Fatalf("a source query reads %d adjacency entries, %d all pushed, %d all pulled: one direction never ran", mixed, push, pull)
	}
}

// TestDeadPairsCostNothing: a pair with an endpoint nobody links to is 0
// before any workspace is touched, and a side that empties mid-series
// stops the other side's expansion at that level.
func TestDeadPairsCostNothing(t *testing.T) {
	// 0 → 1 → 2; hub 3 has in-links from 4..9, each of which 0 links to.
	b := graph.NewBuilder(10)
	edges := [][2]int{{0, 1}, {1, 2}}
	for v := 4; v < 10; v++ {
		edges = append(edges, [2]int{v, 3}, [2]int{0, v})
	}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	diag := make([]float64, g.NumNodes())
	for i := range diag {
		diag[i] = 0.5
	}
	e, err := New(g, diag, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	forceDirection(t, math.Inf(1)) // count pushed rows, not m per level
	if s, err := e.SinglePair(0, 3); err != nil || s != 0 || e.EdgesTraversed() != 0 {
		t.Fatalf("pair with a node nobody links to: %g, %v, %d entries read; want 0, nil, 0", s, err, e.EdgesTraversed())
	}
	// Side 1 is {0} at level 1 and empty at level 2 (0 has no in-links):
	// level 1 reads In(1) and In(3), level 2 stages side 1 and stops.
	if s, err := e.SinglePair(1, 3); err != nil || s != 0 {
		t.Fatalf("SinglePair(1,3) = %g, %v", s, err)
	}
	if got, want := e.EdgesTraversed(), int64(g.InDegree(1)+g.InDegree(3)); got != want {
		t.Fatalf("pair whose first side empties at level 2 read %d adjacency entries, want %d", got, want)
	}
}

// TestCancelledQueriesLeaveCleanWorkspaces: whichever direction a level
// takes, a query cancelled mid-series hands its workspace back zeroed —
// concurrent queries on the shared pool keep answering what a fresh engine
// does (run with -race).
func TestCancelledQueriesLeaveCleanWorkspaces(t *testing.T) {
	g := testGraph(t, 150, 1200, 41)
	opts := testOptions()
	opts.PruneEps = 1e-5
	e, err := Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range directions {
		t.Run(dir.name, func(t *testing.T) {
			forceDirection(t, dir.at)
			wantPair, _ := e.SinglePair(3, 8)
			wantSrc, _ := e.SingleSource(3)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for checks := 0; checks <= 2*opts.T+1; checks++ {
					left := checks
					ctx := countdownCtx{context.Background(), &left}
					_, _ = e.SinglePairCtx(ctx, 3, 8, opts.PruneEps) // cancelled: the error is the point
					left = checks
					var v sparse.Vector
					_ = e.SingleSourceInto(ctx, 5, opts.PruneEps, &v)
				}
			}()
			for k := 0; k < 40; k++ {
				if got, err := e.SinglePair(3, 8); err != nil || got != wantPair {
					t.Errorf("pair beside cancelled queries: %g, %v; want %g", got, err, wantPair)
				}
				got, err := e.SingleSource(3)
				if err != nil || !slices.Equal(got.Idx, wantSrc.Idx) || !slices.Equal(got.Val, wantSrc.Val) {
					t.Errorf("source beside cancelled queries differs (err %v)", err)
				}
			}
			<-done
			// Every workspace the pool hands out is zeroed: both frontiers'
			// values and the arrays each side's step builds in.
			var held []*workspace
			for k := 0; k < 4; k++ {
				ws := e.pool.Get().(*workspace)
				held = append(held, ws)
				for _, f := range []*frontier{&ws.a, &ws.b} {
					if len(f.nodes) != 0 || slices.ContainsFunc(f.val, nonzero) || slices.ContainsFunc(f.acc, nonzero) {
						t.Fatalf("a pooled workspace holds a nonzero entry after cancelled queries")
					}
				}
			}
			for _, ws := range held {
				e.pool.Put(ws)
			}
		})
	}
}

func nonzero(v float64) bool { return v != 0 }

// TestSharedPullCountsOnce: a pair level whose two sides pull together
// reads the adjacency once, so EdgesTraversed counts m for it, not 2m.
func TestSharedPullCountsOnce(t *testing.T) {
	// A 5-cycle: each side is one node at every level, none pruned.
	b := graph.NewBuilder(5)
	for v := 0; v < 5; v++ {
		if err := b.AddEdge(v, (v+1)%5); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	diag := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	e, err := New(g, diag, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	forceDirection(t, 0)
	if _, err := e.SinglePair(0, 2); err != nil {
		t.Fatal(err)
	}
	if got, want := e.EdgesTraversed(), int64(e.opts.T*g.NumEdges()); got != want {
		t.Fatalf("a pair pulled at each of %d levels read %d adjacency entries, want %d", e.opts.T, got, want)
	}
}
