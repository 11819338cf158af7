package walk

import (
	"math"
	"testing"

	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/xrand"
)

func diamond(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.MustFromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
}

func TestStepIn(t *testing.T) {
	g := diamond(t)
	src := xrand.New(1)
	// Node 0 has no in-links.
	if StepIn(g, 0, src) != -1 {
		t.Fatal("StepIn from dangling node should be -1")
	}
	// Node 1's only in-neighbor is 0.
	for i := 0; i < 10; i++ {
		if StepIn(g, 1, src) != 0 {
			t.Fatal("StepIn(1) must go to 0")
		}
	}
	// Node 3 goes to 1 or 2.
	for i := 0; i < 20; i++ {
		v := StepIn(g, 3, src)
		if v != 1 && v != 2 {
			t.Fatalf("StepIn(3) = %d", v)
		}
	}
}

// distributions runs DistributionsInto on a fresh scratch and buffer.
func distributions(g *graph.Graph, start, T, R int, seed uint64) []sparse.Vector {
	var buf DistBuf
	return NewScratch(0).DistributionsInto(&buf, g, start, T, R, seed)
}

func TestDistributionsExactOnDeterministicGraph(t *testing.T) {
	// On a cycle the walk is deterministic, so MC equals the exact
	// distribution for any R.
	g, err := gen.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	dists := distributions(g, 0, 3, 7, 4)
	for tt, d := range dists {
		want := ((0-tt)%5 + 5) % 5 // in-neighbor of k is k-1 mod 5
		if d.NNZ() != 1 || math.Abs(d.Get(want)-1) > 1e-12 {
			t.Fatalf("t=%d dist %+v, want unit at %d", tt, d, want)
		}
	}
}

func TestDistributionsMatchExactOperator(t *testing.T) {
	// Empirical distributions converge to P^t e_i.
	g, err := gen.ErdosRenyi(30, 200, 6)
	if err != nil {
		t.Fatal(err)
	}
	p := sparse.NewTransition(g)
	const start, T, R = 7, 4, 60000
	emp := distributions(g, start, T, R, 5)
	exact := p.PowerUnit(start, T)
	for tt := 0; tt <= T; tt++ {
		diff := sparse.AddScaled(&emp[tt], -1, exact[tt])
		if linf := maxAbs(diff); linf > 0.02 {
			t.Fatalf("t=%d: ‖emp-exact‖∞ = %g", tt, linf)
		}
	}
}

func maxAbs(v *sparse.Vector) float64 {
	m := 0.0
	for _, x := range v.Val {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

func TestDistributionsMassConservation(t *testing.T) {
	// Each step's distribution sums to alive/R <= 1, non-increasing in t.
	g, err := gen.RMAT(50, 250, gen.DefaultRMAT, 8)
	if err != nil {
		t.Fatal(err)
	}
	dists := distributions(g, 10, 6, 500, 6)
	prev := 1.0
	for tt, d := range dists {
		s := d.Sum()
		if s > prev+1e-12 {
			t.Fatalf("mass increased at t=%d: %g > %g", tt, s, prev)
		}
		prev = s
	}
	if math.Abs(dists[0].Sum()-1) > 1e-9 {
		t.Fatalf("t=0 mass %g, want 1", dists[0].Sum())
	}
}

func TestForwardWeightedUnbiased(t *testing.T) {
	// E[deposit at j] = Pr[t-step backward walk from j ends at k].
	// Check on the diamond with t=1, k=0: backward from 1 reaches 0 w.p. 1;
	// backward from 2 reaches 0 w.p. 1; from 3 w.p. 0 (needs 2 steps).
	g := diamond(t)
	src := xrand.New(12)
	const R = 200000
	dep := map[int32]float64{}
	for r := 0; r < R; r++ {
		j, w := ForwardWeightedView(g, 0, 1.0, 1, src)
		if j >= 0 {
			dep[j] += w / R
		}
	}
	if math.Abs(dep[1]-1) > 0.02 || math.Abs(dep[2]-1) > 0.02 {
		t.Fatalf("deposits %v, want ~1 at nodes 1 and 2", dep)
	}
	if dep[3] != 0 {
		t.Fatalf("deposit at 3 = %g, want 0", dep[3])
	}
}

func TestForwardWeightedTwoSteps(t *testing.T) {
	// k=0, t=2: backward 2-step walks reaching 0: only from 3 (3->1->0 or
	// 3->2->0, each prob 1/2, total 1).
	g := diamond(t)
	src := xrand.New(13)
	const R = 200000
	dep := map[int32]float64{}
	for r := 0; r < R; r++ {
		j, w := ForwardWeightedView(g, 0, 1.0, 2, src)
		if j >= 0 {
			dep[j] += w / R
		}
	}
	if math.Abs(dep[3]-1) > 0.03 {
		t.Fatalf("deposit at 3 = %g, want ~1 (got %v)", dep[3], dep)
	}
}

func TestForwardWeightedDiesAtSink(t *testing.T) {
	g := diamond(t)
	src := xrand.New(14)
	if j, w := ForwardWeightedView(g, 3, 1.0, 1, src); j != -1 || w != 0 {
		t.Fatalf("walk from sink returned (%d, %g)", j, w)
	}
}

func TestMeetingTime(t *testing.T) {
	g := diamond(t)
	src := xrand.New(15)
	// Walks from 1 and 2 must meet at node 0 at step 1.
	if mt := MeetingTime(g, 1, 2, 5, src); mt != 1 {
		t.Fatalf("MeetingTime(1,2) = %d, want 1", mt)
	}
	// Walks from 0 die immediately: never meet.
	if mt := MeetingTime(g, 0, 3, 5, src); mt != 0 {
		t.Fatalf("MeetingTime(0,3) = %d, want 0", mt)
	}
}

func TestMeetingTimeSameNodeNotZero(t *testing.T) {
	// Meeting requires both walks to move first; from equal start nodes
	// on a cycle they stay together and "meet" at step 1.
	g, err := gen.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	if mt := MeetingTime(g, 2, 2, 3, xrand.New(16)); mt != 1 {
		t.Fatalf("MeetingTime(2,2) = %d, want 1", mt)
	}
}

func BenchmarkDistributions(b *testing.B) {
	g, err := gen.RMAT(10000, 100000, gen.DefaultRMAT, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := NewScratch(g.NumNodes())
	var buf DistBuf
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DistributionsInto(&buf, g, i%g.NumNodes(), 10, 100, uint64(i))
	}
}

func BenchmarkForwardWeighted(b *testing.B) {
	g, err := gen.RMAT(10000, 100000, gen.DefaultRMAT, 2)
	if err != nil {
		b.Fatal(err)
	}
	src := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForwardWeightedView(g, int32(i%g.NumNodes()), 1.0, 10, src)
	}
}
