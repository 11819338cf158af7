package walk

import (
	"math"
	"slices"
	"testing"

	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
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

// vecEqual reports bit-exact equality of two sparse vectors.
func vecEqual(a, b *sparse.Vector) bool {
	if len(a.Idx) != len(b.Idx) {
		return false
	}
	for k := range a.Idx {
		if a.Idx[k] != b.Idx[k] || a.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

// tracePrefixes runs start's walkers in AdaptiveSchedule(R) waves
// through s and trace, and calls check after every wave with the
// checkpoint n and the distributions CountTrace makes of the first n
// walkers (their integer counts left in buf.cnt).
func tracePrefixes(s *Scratch, buf *DistBuf, trace []int32, vw *graph.WalkView, start, T, R int, seed uint64,
	check func(n int, got []sparse.Vector)) {
	prev := 0
	for _, n := range AdaptiveSchedule(R) {
		s.TraceWave(vw, start, T, n-prev, seed, prev, trace, R)
		prev = n
		check(n, s.CountTrace(buf, vw, start, T, n, trace, R))
	}
}

// TestWaveMergeMatchesOneShotBitExact pins the adaptive cap bit-identity
// at the kernel level, and more: waves traced along AdaptiveSchedule,
// then counted at ANY checkpoint n, must equal DistributionsInto with
// R = n bit for bit — indices, integer counts and floats. R = 16 keeps
// the fixed run in scatter mode; at R = 4·batchSortMin it sorts its
// early levels, which the waves never do.
func TestWaveMergeMatchesOneShotBitExact(t *testing.T) {
	g, err := gen.RMAT(500, 4000, gen.DefaultRMAT, 13)
	if err != nil {
		t.Fatal(err)
	}
	vw := g.WalkView()
	const (
		T    = 8
		seed = 77
	)
	for _, R := range []int{16, batchSortMin * 4} {
		for _, start := range []int{0, 7, 499} {
			var buf DistBuf
			checkpoints := 0
			tracePrefixes(NewScratch(g.NumNodes()), &buf, make([]int32, T*R), vw, start, T, R, seed,
				func(n int, got []sparse.Vector) {
					var want DistBuf
					ref := NewScratch(g.NumNodes()).DistributionsInto(&want, vw, start, T, n, seed)
					if len(got) != len(ref) {
						t.Fatalf("R=%d start %d n=%d: %d levels, fixed run %d", R, start, n, len(got), len(ref))
					}
					for lvl := range ref {
						if !slices.Equal(buf.cnt[lvl], want.cnt[lvl]) {
							t.Fatalf("R=%d start %d n=%d level %d: counts %v, fixed run %v",
								R, start, n, lvl, buf.cnt[lvl], want.cnt[lvl])
						}
						if !vecEqual(&got[lvl], &ref[lvl]) {
							t.Fatalf("R=%d start %d n=%d level %d: %+v, fixed run %+v",
								R, start, n, lvl, got[lvl], ref[lvl])
						}
					}
					checkpoints++
				})
			if R > batchSortMin && checkpoints < 3 {
				t.Fatalf("R=%d: %d checkpoints, want the sorted regime's several", R, checkpoints)
			}
		}
	}
}

// TestWaveAccumReuse: the per-query state adaptive waves accumulate in —
// Scratch, DistBuf and trace — reused from a previous query must not
// leak its counts or positions: every checkpoint equals a fresh run's.
func TestWaveAccumReuse(t *testing.T) {
	g, err := gen.RMAT(200, 1600, gen.DefaultRMAT, 29)
	if err != nil {
		t.Fatal(err)
	}
	vw := g.WalkView()
	const (
		T    = 5
		seed = 41
	)
	for _, R := range []int{64, batchSortMin * 2} {
		// Snapshot a fresh run's distributions and counts at every checkpoint.
		var fresh [][]sparse.Vector
		var freshCnt [][][]int32
		var fb DistBuf
		tracePrefixes(NewScratch(g.NumNodes()), &fb, make([]int32, T*R), vw, 17, T, R, seed,
			func(n int, got []sparse.Vector) {
				vecs := make([]sparse.Vector, len(got))
				cnt := make([][]int32, len(got))
				for lvl := range got {
					vecs[lvl] = sparse.Vector{Idx: slices.Clone(got[lvl].Idx), Val: slices.Clone(got[lvl].Val)}
					cnt[lvl] = slices.Clone(fb.cnt[lvl])
				}
				fresh = append(fresh, vecs)
				freshCnt = append(freshCnt, cnt)
			})

		s := NewScratch(g.NumNodes())
		var buf DistBuf
		trace := make([]int32, T*R)
		tracePrefixes(s, &buf, trace, vw, 3, T, R, seed, func(int, []sparse.Vector) {}) // dirty them
		k := 0
		tracePrefixes(s, &buf, trace, vw, 17, T, R, seed, func(n int, got []sparse.Vector) {
			want := fresh[k]
			if len(got) != len(want) {
				t.Fatalf("R=%d n=%d: %d levels after reuse, fresh %d", R, n, len(got), len(want))
			}
			for lvl := range want {
				if !slices.Equal(buf.cnt[lvl], freshCnt[k][lvl]) {
					t.Fatalf("R=%d n=%d level %d: counts differ after reuse", R, n, lvl)
				}
				if !vecEqual(&got[lvl], &want[lvl]) {
					t.Fatalf("R=%d n=%d level %d: %+v after reuse, fresh %+v", R, n, lvl, got[lvl], want[lvl])
				}
			}
			k++
		})
		if k != len(fresh) {
			t.Fatalf("R=%d: %d checkpoints after reuse, fresh %d", R, k, len(fresh))
		}
	}
}

// TestTraceWaveMatchesReplay verifies the per-walker position trace
// against an independent replay: walker first+w at level t must be
// exactly where StepIn walking substream NewStream(seed, first+w) says it
// is, and -1 forever after death. The wave writes its own slots of a
// strided trace and nothing else. The trace is what adaptive stopping
// computes its meeting samples from, so any drift here would silently
// bias the confidence interval.
func TestTraceWaveMatchesReplay(t *testing.T) {
	g, err := gen.RMAT(300, 2400, gen.DefaultRMAT, 19)
	if err != nil {
		t.Fatal(err)
	}
	vw := g.WalkView()
	const (
		T     = 6
		seed  = 5
		first = 37
		fill  = -7 // never written by a wave
	)
	for _, R := range []int{16, batchSortMin * 2} { // the fixed run's scatter and sorted regimes
		stride := first + R + 5
		s := NewScratch(g.NumNodes())
		trace := make([]int32, T*stride)
		for k := range trace {
			trace[k] = fill
		}
		s.TraceWave(vw, 11, T, R, seed, first, trace, stride)
		for lvl := 1; lvl <= T; lvl++ {
			row := trace[(lvl-1)*stride : lvl*stride]
			for k, v := range row {
				if (k < first || k >= first+R) && v != fill {
					t.Fatalf("R=%d level %d: slot %d outside the wave written (%d)", R, lvl, k, v)
				}
			}
		}
		for w := 0; w < R; w++ {
			src := xrand.NewStream(seed, uint64(first+w))
			cur := 11
			for lvl := 1; lvl <= T; lvl++ {
				want := int32(-1)
				if cur >= 0 {
					cur = StepIn(g, cur, src)
					want = int32(cur)
				}
				if got := trace[(lvl-1)*stride+first+w]; got != want {
					t.Fatalf("R=%d walker %d level %d: trace %d, replay %d", R, first+w, lvl, got, want)
				}
			}
		}
	}
}
