package walk

import (
	"math"
	"testing"

	"cloudwalker/internal/gen"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/xrand"
)

func TestAdaptiveScheduleProperties(t *testing.T) {
	for _, budget := range []int{1, 16, 32, 33, 50, 100, 126, 1000, 2000, 12345} {
		sched := AdaptiveSchedule(budget)
		if len(sched) == 0 {
			t.Fatalf("budget %d: empty schedule", budget)
		}
		if sched[len(sched)-1] != budget {
			t.Fatalf("budget %d: schedule %v does not end at the cap", budget, sched)
		}
		prev := 0
		for k, cum := range sched {
			if cum <= prev {
				t.Fatalf("budget %d: schedule %v not strictly increasing", budget, sched)
			}
			if k < len(sched)-1 && cum%2 != 0 {
				t.Fatalf("budget %d: intermediate target %d is odd in %v", budget, cum, sched)
			}
			prev = cum
		}
		if len(sched) > 1 && sched[0] < adaptiveMinWave {
			t.Fatalf("budget %d: first wave %d below minimum %d", budget, sched[0], adaptiveMinWave)
		}
	}
	if AdaptiveSchedule(0) != nil || AdaptiveSchedule(-5) != nil {
		t.Fatal("non-positive budget must yield no schedule")
	}
	// The paper-default query budget: the exact schedule the docs quote.
	got := AdaptiveSchedule(1000)
	want := []int{126, 252, 504, 1000}
	if len(got) != len(want) {
		t.Fatalf("schedule(1000) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule(1000) = %v, want %v", got, want)
		}
	}
}

func TestAdaptiveHalfWidth(t *testing.T) {
	if !math.IsInf(AdaptiveHalfWidth(0, 0, 0, 1, 1), 1) {
		t.Fatal("n = 0 must yield an infinite half-width")
	}
	// Zero variance: only the range term remains.
	L := AdaptiveLogTerm(0.05, 3)
	hw := AdaptiveHalfWidth(0, 0, 100, L, 0.6)
	if want := 0.6 * L / 100; math.Abs(hw-want) > 1e-15 {
		t.Fatalf("zero-variance half-width %g, want %g", hw, want)
	}
	// Adding variance can only widen the interval.
	if AdaptiveHalfWidth(50, 40, 100, L, 0.6) <= hw {
		t.Fatal("variance did not widen the interval")
	}
	// More samples shrink it.
	if AdaptiveHalfWidth(0, 0, 200, L, 0.6) >= hw {
		t.Fatal("more samples did not shrink the interval")
	}
}

// TestWaveMergeMatchesOneShotBitExact pins the cap bit-identity at the
// kernel level: running the walker population in AdaptiveSchedule waves
// through DistCountsWave + WaveAccum.Merge and scaling once must equal
// the one-shot fixed-budget distributions bit for bit — on a budget
// large enough that early levels run the sorted engine and the dying
// tail runs scatter mode, so the invariant covers both regimes and the
// crossover.
func TestWaveMergeMatchesOneShotBitExact(t *testing.T) {
	g, err := gen.RMAT(500, 4000, gen.DefaultRMAT, 13)
	if err != nil {
		t.Fatal(err)
	}
	vw := g.WalkView()
	const (
		T    = 8
		R    = batchSortMin * 4
		seed = 77
	)
	for _, start := range []int{0, 7, 499} {
		var oneBuf DistBuf
		one := NewScratch(g.NumNodes()).DistributionsInto(&oneBuf, vw, start, T, R, seed)

		s := NewScratch(g.NumNodes())
		var wav WaveAccum
		var buf DistBuf
		wav.Reset(T)
		prev := 0
		for _, cum := range AdaptiveSchedule(R) {
			rw := cum - prev
			trace := make([]int32, T*rw)
			s.DistCountsWave(&buf, vw, start, T, rw, seed, uint64(prev), trace)
			wav.Merge(&buf, T)
			prev = cum
		}
		waved := wav.Scale(T, R)
		for lvl := 0; lvl <= T; lvl++ {
			a, b := one[lvl], waved[lvl]
			// Level 0 of the one-shot buffer is the start unit vector; the
			// wave kernel only counts levels >= 1 (callers reconstruct the
			// exact t = 0 term themselves).
			if lvl == 0 {
				continue
			}
			if len(a.Idx) != len(b.Idx) {
				t.Fatalf("start %d level %d: nnz %d vs %d", start, lvl, len(a.Idx), len(b.Idx))
			}
			for k := range a.Idx {
				if a.Idx[k] != b.Idx[k] || a.Val[k] != b.Val[k] {
					t.Fatalf("start %d level %d entry %d: (%d,%g) vs (%d,%g)",
						start, lvl, k, a.Idx[k], a.Val[k], b.Idx[k], b.Val[k])
				}
			}
		}
	}
}

// TestDistCountsWaveTraceMatchesReplay verifies the per-walker position
// trace against an independent replay: walker first+w at level t must be
// exactly where StepIn walking substream NewStream(seed, first+w) says it
// is, and -1 forever after death. The trace is what adaptive stopping
// computes its meeting samples from, so any drift here would silently
// bias the confidence interval.
func TestDistCountsWaveTraceMatchesReplay(t *testing.T) {
	g, err := gen.RMAT(300, 2400, gen.DefaultRMAT, 19)
	if err != nil {
		t.Fatal(err)
	}
	vw := g.WalkView()
	const (
		T     = 6
		seed  = 5
		first = 37
	)
	for _, R := range []int{16, batchSortMin * 2} { // scatter-only and sorted regimes
		s := NewScratch(g.NumNodes())
		var buf DistBuf
		trace := make([]int32, T*R)
		s.DistCountsWave(&buf, vw, 11, T, R, seed, first, trace)
		for w := 0; w < R; w++ {
			src := xrand.NewStream(seed, first+uint64(w))
			cur := 11
			for lvl := 1; lvl <= T; lvl++ {
				want := int32(-1)
				if cur >= 0 {
					cur = StepIn(g, cur, src)
					want = int32(cur)
				}
				if got := trace[(lvl-1)*R+w]; got != want {
					t.Fatalf("R=%d walker %d level %d: trace %d, replay %d", R, w, lvl, got, want)
				}
			}
		}
	}
}

// TestWaveAccumReuse: a WaveAccum reset between queries must not leak
// counts from the previous query.
func TestWaveAccumReuse(t *testing.T) {
	g, err := gen.RMAT(200, 1600, gen.DefaultRMAT, 29)
	if err != nil {
		t.Fatal(err)
	}
	vw := g.WalkView()
	const (
		T    = 5
		R    = 64
		seed = 41
	)
	run := func(wav *WaveAccum, start int) []sparse.Vector {
		s := NewScratch(g.NumNodes())
		var buf DistBuf
		wav.Reset(T)
		trace := make([]int32, T*R)
		s.DistCountsWave(&buf, vw, start, T, R, seed, 0, trace)
		wav.Merge(&buf, T)
		return wav.Scale(T, R)
	}
	var fresh, reused WaveAccum
	_ = run(&reused, 3) // dirty it
	a := run(&fresh, 17)
	b := run(&reused, 17)
	for lvl := 1; lvl <= T; lvl++ {
		if len(a[lvl].Idx) != len(b[lvl].Idx) {
			t.Fatalf("level %d: nnz %d vs %d", lvl, len(a[lvl].Idx), len(b[lvl].Idx))
		}
		for k := range a[lvl].Idx {
			if a[lvl].Idx[k] != b[lvl].Idx[k] || a[lvl].Val[k] != b[lvl].Val[k] {
				t.Fatalf("level %d entry %d differs after reuse", lvl, k)
			}
		}
	}
}
