// Package linserve is the serving-grade linearized SimRank engine — the
// deterministic second backend behind cloudwalkerd.
//
// Like the LIN baseline (internal/baseline/lin) it evaluates the
// linearization S = Σ_t c^t (Pᵀ)^t D P^t with exact sparse algebra, but it
// is built to sit behind the query path of a server rather than a
// benchmark table:
//
//   - The diagonal correction D is solved once at prep time with the
//     parallel Jacobi sweep from internal/linsys (the paper's "Update x In
//     Parallel"), and can be persisted into the CWSN snapshot format so a
//     daemon restart never re-solves it.
//   - Queries run truncated-series sparse matvecs on a pooled dense
//     workspace (frontier value arrays + touched lists), so the warm path
//     performs no steady-state allocation and no map churn — the same
//     discipline core.Querier applies to the Monte Carlo kernels.
//   - Options.PruneEps truncates query-time frontiers, trading bounded
//     error for bounded cost on graphs whose t-hop in-neighborhoods
//     approach m.
//   - Options.Rank > 0 additionally holds a low-rank factorization
//     S ≈ Q M Qᵀ in memory (Oseledets & Ovchinnikov style) and answers
//     single-source from it in O(n·r) — the memory-bounded form for
//     larger graphs.
//
// Answers are deterministic: no sampling noise, bit-identical across
// repeats — which is why the server routes hot/head pairs here and leaves
// the tail to Monte Carlo.
package linserve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cloudwalker/internal/graph"
	"cloudwalker/internal/linsys"
	"cloudwalker/internal/sparse"
)

// Options configures the linearized engine.
type Options struct {
	// C is the SimRank decay factor.
	C float64
	// T is the series truncation length.
	T int
	// Sweeps is the number of parallel Jacobi sweeps for the diagonal
	// solve.
	Sweeps int
	// Workers bounds parallelism of the prep stage (row build and
	// Jacobi); 0 means 1.
	Workers int
	// BuildPruneEps drops entries below this magnitude during the prep
	// row expansion (0 = exact). Prep cost grows with the T-hop
	// in-neighborhood of every node; pruning bounds it.
	BuildPruneEps float64
	// PruneEps drops entries below this magnitude during query-time
	// expansion (0 = exact). Each pruned frontier entry can bias a score
	// by at most its value times the remaining series mass, so eps around
	// 1e-4 is invisible at serving precision while keeping frontiers
	// sparse.
	PruneEps float64
	// Rank, when positive, builds a rank-min(Rank,n) factorization
	// S ≈ Q M Qᵀ at prep time and answers single-source queries from it.
	Rank int
	// Seed drives the randomized range sketch of the low-rank build.
	// The sketch is deterministic given (Seed, Rank, graph).
	Seed uint64
}

// DefaultOptions matches the paper's parameters (c = 0.6, T = 10).
func DefaultOptions() Options {
	return Options{C: 0.6, T: 10, Sweeps: 5}
}

// Validate reports the first invalid option.
func (o Options) Validate() error {
	if o.C <= 0 || o.C >= 1 {
		return fmt.Errorf("linserve: decay C=%g outside (0,1)", o.C)
	}
	if o.T < 0 {
		return fmt.Errorf("linserve: negative series length T=%d", o.T)
	}
	if o.Sweeps <= 0 {
		return fmt.Errorf("linserve: sweep count %d must be positive", o.Sweeps)
	}
	if o.BuildPruneEps < 0 {
		return fmt.Errorf("linserve: negative build prune threshold %g", o.BuildPruneEps)
	}
	if o.PruneEps < 0 {
		return fmt.Errorf("linserve: negative query prune threshold %g", o.PruneEps)
	}
	if o.Rank < 0 {
		return fmt.Errorf("linserve: negative rank %d", o.Rank)
	}
	return nil
}

func (o Options) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// BuildReport describes the prep stage.
type BuildReport struct {
	// RowNNZ is the total entry count of the assembled row system A.
	RowNNZ int
	// Solve is the Jacobi solve report: sweeps, residual history, and
	// SkippedRows, the rows left at 0 for a zero diagonal (an exact row
	// system has none).
	Solve linsys.Report
}

// Engine answers SimRank queries from a precomputed diagonal correction.
// It is safe for concurrent use: per-query working memory comes from an
// internal pool.
type Engine struct {
	opts Options
	g    *graph.Graph
	diag []float64
	ct   []float64 // ct[t] = C^t
	pool sync.Pool // *workspace
	lr   *lowRank
	rep  BuildReport
}

// Build assembles the exact row system a_i = Σ_t c^t (P^t e_i)∘(P^t e_i)
// (parallel across rows, dense-scratch expansion), solves A x = 1 with
// parallel Jacobi, clamps the diagonal into [0,1], and — when opts.Rank is
// set — factorizes the resulting operator.
func Build(g *graph.Graph, opts Options) (*Engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	a := sparse.NewMatrix(n, n)
	workers := opts.workers()
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := newWorkspace(n)
			row := newRowAccum(n)
			rows := a.Writer()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				exactRow(g, i, opts, ws, row)
				row.take(rows.Begin(len(row.nodes)))
				rows.End(i)
			}
		}()
	}
	wg.Wait()
	sys, err := linsys.NewSystem(a, linsys.Ones(n))
	if err != nil {
		return nil, err
	}
	x, solveRep, err := sys.Jacobi(opts.Sweeps, workers, nil)
	if err != nil {
		return nil, err
	}
	if solveRep.Diverged() {
		return nil, fmt.Errorf("linserve: diagonal solve diverged (residuals %v); the row system is not diagonally dominant enough for Jacobi", solveRep.Residuals)
	}
	for i := range x {
		x[i] = sparse.Clamp01(x[i])
	}
	e, err := New(g, x, opts)
	if err != nil {
		return nil, err
	}
	e.rep = BuildReport{RowNNZ: a.NNZ(), Solve: solveRep}
	return e, nil
}

// New binds a previously computed diagonal (e.g. restored from a CWSN
// snapshot section) to its graph. When opts.Rank is set the factorization
// is rebuilt from the diagonal — it is cheap relative to the diagonal
// solve and deterministic given opts.Seed.
func New(g *graph.Graph, diag []float64, opts Options) (*Engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if len(diag) != n {
		return nil, fmt.Errorf("linserve: diagonal has %d entries, graph has %d nodes", len(diag), n)
	}
	for i, d := range diag {
		if !(d >= 0 && d <= 1) { // also rejects NaN
			return nil, fmt.Errorf("linserve: diagonal entry %d = %g outside [0,1]", i, d)
		}
	}
	ct := make([]float64, opts.T+1)
	ct[0] = 1
	for t := 1; t <= opts.T; t++ {
		ct[t] = ct[t-1] * opts.C
	}
	e := &Engine{opts: opts, g: g, diag: diag, ct: ct}
	e.pool.New = func() any { return newWorkspace(n) }
	if opts.Rank > 0 {
		e.lr = buildLowRank(g, diag, opts)
	}
	return e, nil
}

// Options returns the engine's options.
func (e *Engine) Options() Options { return e.opts }

// Graph returns the bound graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Diag returns the diagonal correction. Callers must not mutate it.
func (e *Engine) Diag() []float64 { return e.diag }

// Report returns the prep report (zero value for engines restored via New).
func (e *Engine) Report() BuildReport { return e.rep }

// HasLowRank reports whether a low-rank factorization is resident.
func (e *Engine) HasLowRank() bool { return e.lr != nil }

// exactRow accumulates a_i = Σ_t c^t (P^t e_i)∘(P^t e_i) into row by
// dense-scratch expansion (no map accumulators — prep on serving-sized
// graphs walks millions of frontier entries).
func exactRow(g *graph.Graph, i int, opts Options, ws *workspace, row *rowAccum) {
	row.add(int32(i), 1) // t = 0 term
	f := &ws.a
	f.init(i)
	ct := 1.0
	for t := 1; t <= opts.T; t++ {
		stepP(g, f, &ws.tmp)
		f.prune(opts.BuildPruneEps)
		if len(f.nodes) == 0 {
			break
		}
		ct *= opts.C
		for _, k := range f.nodes {
			v := f.val[k]
			row.add(k, ct*v*v)
		}
	}
	f.clear()
}

// SinglePair is SinglePairCtx without cancellation.
func (e *Engine) SinglePair(i, j int) (float64, error) {
	return e.SinglePairCtx(context.Background(), i, j)
}

// SinglePairCtx evaluates s(i,j) = Σ_t c^t (P^t e_i)ᵀ D (P^t e_j) by dual
// forward expansion. Deterministic; cost O(T·frontier) with the frontier
// bounded by PruneEps. ctx is checked up front and once per series level
// (a level is the unit of work: one frontier expansion per side), so a
// deadline bounds latency to one level past expiry.
func (e *Engine) SinglePairCtx(ctx context.Context, i, j int) (float64, error) {
	if err := e.checkNode(i); err != nil {
		return 0, err
	}
	if err := e.checkNode(j); err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if i == j {
		return 1, nil
	}
	ws := e.pool.Get().(*workspace)
	defer e.putWorkspace(ws)
	a, b := &ws.a, &ws.b
	defer a.clear()
	defer b.clear()
	a.init(i)
	b.init(j)
	s := 0.0
	for t := 1; t <= e.opts.T; t++ {
		stepP(e.g, a, &ws.tmp)
		a.prune(e.opts.PruneEps)
		stepP(e.g, b, &ws.tmp)
		b.prune(e.opts.PruneEps)
		if len(a.nodes) == 0 || len(b.nodes) == 0 {
			break
		}
		s += e.ct[t] * weightedDot(a, b, e.diag)
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	return sparse.Clamp01(s), nil
}

// SingleSource evaluates s(q, ·), returning a fresh sparse vector.
func (e *Engine) SingleSource(q int) (*sparse.Vector, error) {
	out := &sparse.Vector{}
	if err := e.SingleSourceInto(context.Background(), q, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SingleSourceInto evaluates S e_q = Σ_t c^t (Pᵀ)^t D P^t e_q into out
// (reset first, keeping capacity). With a resident low-rank factorization
// it answers from the factors in O(n·rank); otherwise it runs the forward
// pass v_t = P^t e_q followed by the backward Horner recursion
// w_t = D v_t + c Pᵀ w_{t+1}, all on the pooled workspace. ctx is checked
// up front and once per level of either pass.
func (e *Engine) SingleSourceInto(ctx context.Context, q int, out *sparse.Vector) error {
	if err := e.checkNode(q); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.lr != nil {
		e.lr.singleSourceInto(q, out)
		out.Clamp01()
		out.Pin(q)
		return nil
	}
	ws := e.pool.Get().(*workspace)
	defer e.putWorkspace(ws)
	// A cancelled query returns mid-pass: the frontiers must go back to
	// the pool zeroed either way.
	defer ws.a.clear()
	defer ws.b.clear()
	// Forward pass, snapshotting each level for the backward sweep.
	ws.levels = ws.levels[:0]
	f := &ws.a
	f.init(q)
	ws.snapshotLevel(f)
	for t := 1; t <= e.opts.T; t++ {
		stepP(e.g, f, &ws.tmp)
		f.prune(e.opts.PruneEps)
		ws.snapshotLevel(f)
		if len(f.nodes) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	f.clear()
	// Backward Horner pass: w ← D v_t + c Pᵀ w, from t = T down to 0.
	w, nxt := &ws.a, &ws.b
	for t := len(ws.levels) - 1; t >= 0; t-- {
		stepPT(e.g, w, nxt, e.opts.C)
		lv := &ws.levels[t]
		for k, idx := range lv.idx {
			if d := e.diag[idx] * lv.val[k]; d != 0 {
				nxt.addTo(idx, d)
			}
		}
		nxt.prune(e.opts.PruneEps)
		w, nxt = nxt, w
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	w.gather(out)
	out.Clamp01()
	out.Pin(q)
	return nil
}

func (e *Engine) putWorkspace(ws *workspace) {
	e.pool.Put(ws)
}

func (e *Engine) checkNode(i int) error {
	if i < 0 || i >= e.g.NumNodes() {
		return fmt.Errorf("linserve: node %d out of range [0,%d)", i, e.g.NumNodes())
	}
	return nil
}

// frontier is a dense-backed sparse working vector: val is zero outside
// nodes, and nodes holds the touched indices (unsorted). All stored
// values are strictly positive between operations, which is what lets
// "val == 0" double as the membership test.
type frontier struct {
	val   []float64
	nodes []int32
}

func (f *frontier) init(i int) {
	f.val[i] = 1
	f.nodes = append(f.nodes[:0], int32(i))
}

func (f *frontier) clear() {
	for _, i := range f.nodes {
		f.val[i] = 0
	}
	f.nodes = f.nodes[:0]
}

// addTo accumulates v (> 0) at index i, tracking membership.
func (f *frontier) addTo(i int32, v float64) {
	if f.val[i] == 0 {
		f.nodes = append(f.nodes, i)
	}
	f.val[i] += v
}

// prune drops entries ≤ eps, zeroing their dense slots. eps ≤ 0 is a
// no-op.
func (f *frontier) prune(eps float64) {
	if eps <= 0 {
		return
	}
	k := 0
	for _, i := range f.nodes {
		if f.val[i] > eps {
			f.nodes[k] = i
			k++
		} else {
			f.val[i] = 0
		}
	}
	f.nodes = f.nodes[:k]
}

// gather sorts the touched set and copies it into out.
func (f *frontier) gather(out *sparse.Vector) {
	sort.Slice(f.nodes, func(a, b int) bool { return f.nodes[a] < f.nodes[b] })
	out.Idx = out.Idx[:0]
	out.Val = out.Val[:0]
	for _, i := range f.nodes {
		out.Idx = append(out.Idx, i)
		out.Val = append(out.Val, f.val[i])
	}
}

// level is a frozen copy of one forward-pass frontier.
type level struct {
	idx []int32
	val []float64
}

// workspace is the pooled per-query state: two frontiers (the two sides
// of a pair query, or the forward/backward vectors of single-source), a
// scratch list, and the forward-level snapshots.
type workspace struct {
	a, b   frontier
	tmp    frontier
	levels []level
}

func newWorkspace(n int) *workspace {
	return &workspace{
		a:   frontier{val: make([]float64, n)},
		b:   frontier{val: make([]float64, n)},
		tmp: frontier{val: make([]float64, n)},
	}
}

// snapshotLevel appends a copy of f's touched entries, reusing level
// capacity across queries.
func (ws *workspace) snapshotLevel(f *frontier) {
	if cap(ws.levels) > len(ws.levels) {
		ws.levels = ws.levels[:len(ws.levels)+1]
	} else {
		ws.levels = append(ws.levels, level{})
	}
	lv := &ws.levels[len(ws.levels)-1]
	lv.idx = lv.idx[:0]
	lv.val = lv.val[:0]
	for _, i := range f.nodes {
		lv.idx = append(lv.idx, i)
		lv.val = append(lv.val, f.val[i])
	}
}

// stepP advances f ← P f in place (through tmp): mass at node i spreads
// equally over i's in-neighbors. Dangling columns (no in-links) lose
// their mass, matching the walker semantics.
func stepP(g *graph.Graph, f, tmp *frontier) {
	for _, i := range f.nodes {
		x := f.val[i]
		f.val[i] = 0
		d := g.InDegree(int(i))
		if d == 0 {
			continue
		}
		share := x / float64(d)
		if share == 0 {
			continue // underflow: keep the positivity invariant
		}
		for _, k := range g.InNeighbors(int(i)) {
			tmp.addTo(k, share)
		}
	}
	f.nodes = f.nodes[:0]
	f.val, tmp.val = tmp.val, f.val
	f.nodes, tmp.nodes = tmp.nodes, f.nodes
}

// stepPT computes nxt ← scale · Pᵀ w and clears w: mass at node k pushes
// x_k/|In(i)| along every out-edge k→i. nxt must be empty on entry.
func stepPT(g *graph.Graph, w, nxt *frontier, scale float64) {
	for _, k := range w.nodes {
		x := w.val[k] * scale
		w.val[k] = 0
		if x == 0 {
			continue
		}
		for _, i := range g.OutNeighbors(int(k)) {
			share := x / float64(g.InDegree(int(i)))
			if share == 0 {
				continue
			}
			nxt.addTo(i, share)
		}
	}
	w.nodes = w.nodes[:0]
}

// weightedDot returns Σ_k a_k · w_k · b_k, iterating the smaller touched
// set.
func weightedDot(a, b *frontier, w []float64) float64 {
	if len(b.nodes) < len(a.nodes) {
		a, b = b, a
	}
	s := 0.0
	for _, k := range a.nodes {
		if bv := b.val[k]; bv != 0 {
			s += a.val[k] * w[k] * bv
		}
	}
	return s
}

// rowAccum builds one sparse system row on dense scratch.
type rowAccum struct {
	val   []float64
	nodes []int32
}

func newRowAccum(n int) *rowAccum {
	return &rowAccum{val: make([]float64, n)}
}

func (r *rowAccum) add(i int32, v float64) {
	if r.val[i] == 0 {
		r.nodes = append(r.nodes, i)
	}
	r.val[i] += v
}

// take appends the accumulated row to v in index order (len(r.nodes)
// entries) and resets the accumulator.
func (r *rowAccum) take(v *sparse.Vector) {
	sort.Slice(r.nodes, func(a, b int) bool { return r.nodes[a] < r.nodes[b] })
	for _, i := range r.nodes {
		v.Idx = append(v.Idx, i)
		v.Val = append(v.Val, r.val[i])
		r.val[i] = 0
	}
	r.nodes = r.nodes[:0]
}
