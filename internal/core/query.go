package core

import (
	"context"
	"fmt"
	"sync"

	"cloudwalker/internal/graph"
	"cloudwalker/internal/linserve"
	"cloudwalker/internal/par"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/walk"
	"cloudwalker/internal/xrand"
)

// Querier answers online SimRank queries against a built index. It is
// safe for concurrent use: every query derives its own RNG stream, and
// per-query working memory comes from an internal pool, so the warm query
// path performs no steady-state allocation (the serving tier's cache-miss
// path runs at kernel speed).
type Querier struct {
	g      *graph.Graph
	index  *Index
	series *linserve.Engine // over Index.Diag: PullSS and /source, each at its own ε
	ct     []float64        // ct[t] = C^t, built by repeated multiplication
	pool   sync.Pool        // *queryScratch

	// maxDiag is max(Diag), a factor of the adaptive pair path's
	// calibrated sample range b = c·max(D).
	maxDiag float64
}

// queryScratch is the pooled per-query workspace: one dense walk scratch
// (which owns the batched engine's walker state and per-walker RNG
// substreams) and two distribution buffers (the two endpoints of a pair
// query), plus the adaptive pair path's per-walker position traces, T·R'
// entries a side.
type queryScratch struct {
	sc         *walk.Scratch
	bufA, bufB walk.DistBuf
	trA, trB   []int32
}

// NewQuerier binds an index to its graph.
func NewQuerier(g *graph.Graph, index *Index) (*Querier, error) {
	if err := index.Validate(g); err != nil {
		return nil, err
	}
	// The c^t table repeats the exact multiplication sequence of the
	// previous per-query running product, so table lookups are
	// bit-identical to the values they replace.
	ct := make([]float64, index.Opts.T+1)
	ct[0] = 1
	for t := 1; t <= index.Opts.T; t++ {
		ct[t] = ct[t-1] * index.Opts.C
	}
	series, err := linserve.New(g, index.Diag, linserve.Options{C: index.Opts.C, T: index.Opts.T})
	if err != nil {
		return nil, err
	}
	q := &Querier{
		g:      g,
		index:  index,
		series: series,
		ct:     ct,
	}
	for _, d := range index.Diag {
		if d > q.maxDiag {
			q.maxDiag = d
		}
	}
	q.pool.New = func() any {
		return &queryScratch{sc: walk.NewScratch(g.NumNodes())}
	}
	return q, nil
}

// Graph returns the underlying graph.
func (q *Querier) Graph() *graph.Graph { return q.g }

// Index returns the bound index.
func (q *Querier) Index() *Index { return q.index }

// SinglePair is MCSP: s(i,j) ≈ Σ_t c^t (p̂_t^i)ᵀ D (p̂_t^j) with p̂ the
// empirical distributions of R' independent backward walkers from each
// endpoint. Cost O(T·R'), independent of graph size. It always runs the
// fixed budget R', bit-identical across versions for a fixed seed;
// SinglePairAdaptiveCtx is the early-stopping variant.
func (q *Querier) SinglePair(i, j int) (float64, error) {
	if err := q.checkNode(i); err != nil {
		return 0, err
	}
	if err := q.checkNode(j); err != nil {
		return 0, err
	}
	if i == j {
		return 1, nil
	}
	opts := q.index.Opts
	qs := q.pool.Get().(*queryScratch)
	defer q.pool.Put(qs)
	// Each endpoint gets its own walker-stream space: walker w of side s
	// draws from xrand.NewStream(Mix(seed, pairStream(i,j,s)), w).
	di := qs.sc.DistributionsInto(&qs.bufA, q.g, i, opts.T, opts.RPrime,
		xrand.Mix(opts.Seed, pairStream(i, j, 0)))
	dj := qs.sc.DistributionsInto(&qs.bufB, q.g, j, opts.T, opts.RPrime,
		xrand.Mix(opts.Seed, pairStream(i, j, 1)))
	s := 0.0
	for t := 1; t <= opts.T; t++ { // t = 0 term is 0 for i != j
		if t >= len(di) || t >= len(dj) {
			break
		}
		s += q.ct[t] * sparse.WeightedDot(&di[t], &dj[t], q.index.Diag)
	}
	return sparse.Clamp01(s), nil
}

// SinglePairs answers a batch of MCSP queries in parallel, on
// min(Workers, len(pairs)) goroutines (par.For), and returns the first
// error. Results are positionally aligned with pairs and identical to
// calling SinglePair sequentially: each query derives its RNG stream from
// the pair itself, not from scheduling order.
func (q *Querier) SinglePairs(pairs [][2]int) ([]float64, error) {
	out := make([]float64, len(pairs))
	err := par.For(len(pairs), q.index.Opts.NumWorkers(), func() func(int) error {
		return func(k int) (err error) {
			out[k], err = q.SinglePair(pairs[k][0], pairs[k][1])
			return err
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SingleSourceMode selects the phase-two estimator of MCSS.
type SingleSourceMode int

const (
	// WalkSS is the paper's pure Monte Carlo estimator: phase-one walk
	// endpoints continue with importance-weighted forward walks
	// (O(T²·R') total steps, graph-size independent). Neither /source
	// nor AllPairsTopK serves it (both answer with ServedSourceInto); the
	// reproduction (internal/bench, internal/dist) runs it.
	WalkSS SingleSourceMode = iota
	// PullSS evaluates the linearized series over the index's diagonal,
	// Σ_t c^t (Pᵀ)^t D P^t e_q, with an exact forward pass and one
	// backward Horner pass on linserve's pooled kernels: deterministic,
	// no walkers, each frontier pruned at Options.PruneEps.
	PullSS
)

// SingleSource is MCSS: estimates s(q, ·) for every node, returning a
// sparse vector (absent nodes have estimate 0). s(q,q) is pinned to 1.
func (qr *Querier) SingleSource(q int, mode SingleSourceMode) (*sparse.Vector, error) {
	out := &sparse.Vector{}
	if err := qr.SingleSourceInto(context.Background(), q, mode, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SingleSourceInto is SingleSource writing the estimate into out (reset
// first, keeping its capacity). Loops that issue many single-source
// queries reuse one out vector per worker so the warm path of either mode
// performs zero steady-state allocations. ctx is checked once before any
// work; WalkSS has no wave boundaries to preempt at, and PullSS checks it
// again once per series level. /source and AllPairsTopK answer through
// ServedSourceInto, not through either mode.
func (qr *Querier) SingleSourceInto(ctx context.Context, q int, mode SingleSourceMode, out *sparse.Vector) error {
	if err := qr.checkNode(q); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	switch mode {
	case WalkSS:
		qr.singleSourceWalk(q, out)
		return nil
	case PullSS:
		return qr.series.SingleSourceInto(ctx, q, qr.index.Opts.PruneEps, out)
	default:
		return fmt.Errorf("core: unknown single-source mode %d", mode)
	}
}

// A Querier's one series engine takes its prune threshold per call, one
// setting per kind of query: PullSS answers at Options.PruneEps, which the
// reproduction's prune sweep varies, and /source (ServedSourceInto) at
// sourceEps.
//
// sourceEps was measured on the 100k-node RMAT graph the benchmark serves.
// At 7e-4 the series costs more than the MCSS walk (+26% a query
// in-process); at 1.5e-3 about half the walk on sources with in-links, past
// what the benchmark's replay of that walk under each traced /source
// tolerates (ROADMAP, measurement W). At 1e-3 its top-20 overlap with the
// unpruned series is 0.869 and its max error 0.0015, where the walk's are
// 0.200 and 0.9999.
const sourceEps = 1e-3

// ServedSourceInto is the single-source estimate /source serves, written
// into out (reset first, keeping its capacity): PullSS's series over the
// index's diagonal on the same engine, with every frontier pruned at
// sourceEps, whatever Options.PruneEps says. It is deterministic, reads no
// seed, and its warm path allocates nothing. ctx is checked up front and
// once per series level.
func (qr *Querier) ServedSourceInto(ctx context.Context, q int, out *sparse.Vector) error {
	if err := qr.checkNode(q); err != nil {
		return err
	}
	return qr.series.SingleSourceInto(ctx, q, sourceEps, out)
}

// SingleSourceAdaptiveCtx is ServedSourceInto returning a fresh vector and
// the walkers it ran per origin, always 0: the series samples nothing. It
// is the retired adaptive single-source entry point, kept because
// benchmark/client.go checks /source against it; delete it with that
// call. eps must be 0, and delta is ignored.
func (qr *Querier) SingleSourceAdaptiveCtx(ctx context.Context, q int, eps, delta float64) (*sparse.Vector, int, error) {
	if eps != 0 {
		return nil, 0, fmt.Errorf("core: single-source queries take no accuracy target; epsilon must be 0, got %g", eps)
	}
	out := &sparse.Vector{}
	if err := qr.ServedSourceInto(ctx, q, out); err != nil {
		return nil, 0, err
	}
	return out, 0, nil
}

// singleSourceWalk implements the paper's MCSS walk estimator. Each of
// the R' phase-one walkers records its position k_t at every step t; from
// (k_t, t) a phase-two walker runs t importance-weighted forward steps and
// deposits c^t · x[k_t] / R' · (importance weight) at its endpoint j. The
// deposit expectation at j is Σ_t c^t Σ_k Pr_t(q→k) x_k Pr_t(j→k) = s(q,j).
// Both phases run on the batched level-synchronous engine
// (walk.Scratch.SingleSourceWalkInto).
func (qr *Querier) singleSourceWalk(q int, out *sparse.Vector) {
	opts := qr.index.Opts
	qs := qr.pool.Get().(*queryScratch)
	defer qr.pool.Put(qs)
	qs.sc.SingleSourceWalkInto(qr.g, q, opts.T, opts.RPrime, qr.ct, qr.index.Diag,
		xrand.Mix(opts.Seed, uint64(q)*2654435761+17), out)
	out.Clamp01()
	out.Pin(q)
}

// AllPairsTopK is MCAP: the top-k similar nodes of every node (excluding
// the node itself), sorted by descending similarity. Each source runs
// ServedSourceInto and TopKNeighbors, the sources spread over
// Options.NumWorkers() goroutines, so results[i] holds the bits
// /source?node=i&k=k returns. Memory is O(n·k) instead of the O(n²) dense
// similarity matrix.
func (qr *Querier) AllPairsTopK(k int) ([][]Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: top-k needs k > 0, got %d", k)
	}
	n := qr.g.NumNodes()
	results := make([][]Neighbor, n)
	err := par.For(n, qr.index.Opts.NumWorkers(), func() func(int) error {
		// One reusable estimate vector per worker: the top-k truncation
		// copies what it keeps, so the bulk sweep stays allocation-free
		// outside its results.
		var v sparse.Vector
		return func(i int) error {
			if err := qr.ServedSourceInto(context.Background(), i, &v); err != nil {
				return err
			}
			results[i] = TopKNeighbors(&v, i, k)
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Neighbor is one entry of a top-k result list, and its JSON is one
// entry of a /source body.
type Neighbor struct {
	Node  int32   `json:"node"`
	Score float64 `json:"score"`
}

// TopKNeighbors selects the k highest-scoring entries of v, excluding node
// self (pass a negative self to keep all), by a simple partial selection
// (k is small). k <= 0 yields an empty result. It is the truncation step
// between a single-source result and what a serving tier returns to
// clients.
func TopKNeighbors(v *sparse.Vector, self, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	out := make([]Neighbor, 0, k)
	for idx, node := range v.Idx {
		if int(node) == self {
			continue
		}
		score := v.Val[idx]
		if len(out) < k {
			out = append(out, Neighbor{Node: node, Score: score})
			if len(out) == k {
				sortNeighbors(out)
			}
			continue
		}
		if score <= out[k-1].Score {
			continue
		}
		out[k-1] = Neighbor{Node: node, Score: score}
		for i := k - 1; i > 0 && out[i].Score > out[i-1].Score; i-- {
			out[i], out[i-1] = out[i-1], out[i]
		}
	}
	if len(out) < k {
		sortNeighbors(out)
	}
	return out
}

func sortNeighbors(ns []Neighbor) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j].Score > ns[j-1].Score; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

// DirectSinglePair estimates s(i,j) without any index, by the classic
// first-meeting formulation s(i,j) = E[c^τ] with τ the first step at
// which two coupled backward walks from i and j collide (Jeh & Widom;
// the estimator FMT amortizes with its fingerprint index). It is the
// index-free reference point of the query ablation: same walker budget as
// MCSP, no offline stage, but no single-source support and no reuse
// across queries.
func DirectSinglePair(g *graph.Graph, i, j int, c float64, T, R int, seed uint64) (float64, error) {
	n := g.NumNodes()
	if i < 0 || i >= n || j < 0 || j >= n {
		return 0, fmt.Errorf("core: node pair (%d,%d) out of range [0,%d)", i, j, n)
	}
	if c <= 0 || c >= 1 {
		return 0, fmt.Errorf("core: decay c=%g outside (0,1)", c)
	}
	if T <= 0 || R <= 0 {
		return 0, fmt.Errorf("core: T=%d and R=%d must be positive", T, R)
	}
	if i == j {
		return 1, nil
	}
	src := xrand.NewStream(seed, pairStream(i, j, 2))
	total := 0.0
	for r := 0; r < R; r++ {
		if tau := walk.MeetingTime(g, i, j, T, src); tau > 0 {
			total += pow(c, tau)
		}
	}
	return total / float64(R), nil
}

// pow computes c^k for small integer k without math.Pow.
func pow(c float64, k int) float64 {
	out := 1.0
	for ; k > 0; k-- {
		out *= c
	}
	return out
}

func (q *Querier) checkNode(i int) error {
	if i < 0 || i >= q.g.NumNodes() {
		return fmt.Errorf("core: node %d out of range [0,%d)", i, q.g.NumNodes())
	}
	return nil
}

// CanonicalPair orders a pair query: SimRank is symmetric (s(i,j) =
// s(j,i)), but the Monte Carlo estimator derives its RNG streams from the
// ordered pair, so (i,j) and (j,i) would produce slightly different
// estimates. Serving layers canonicalize before querying so both orders
// share one cache entry and one bit-identical score.
func CanonicalPair(i, j int) (int, int) {
	if j < i {
		return j, i
	}
	return i, j
}

// pairStream derives a distinct RNG stream id for each (i, j, side).
func pairStream(i, j, side int) uint64 {
	return uint64(i)*0x9e3779b9 + uint64(j)*0x85ebca6b + uint64(side)
}
