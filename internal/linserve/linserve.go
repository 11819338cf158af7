// Package linserve is the serving-grade linearized SimRank engine — the
// deterministic second backend behind cloudwalkerd.
//
// It evaluates the linearization S = Σ_t c^t (Pᵀ)^t D P^t with exact
// sparse algebra, as Maehara et al.'s LIN baseline does (internal/bench's
// LIN column runs this engine), and is built to sit behind the query path
// of a server:
//
//   - The diagonal correction D is solved once at prep time with the
//     parallel Jacobi sweep from internal/linsys (the paper's "Update x In
//     Parallel"), and can be persisted into the CWSN snapshot format so a
//     daemon restart never re-solves it.
//   - Queries run truncated-series sparse matvecs on a pooled dense
//     workspace (frontier value arrays + support lists), each level pushed
//     from its frontier or pulled over the whole adjacency, whichever reads
//     less memory. A push counts first touches instead of branching on
//     them, and a pair level whose two sides both pull is one pass over the
//     adjacency for both. The warm path performs no allocation and no map
//     churn — the same discipline core.Querier applies to the Monte Carlo
//     kernels.
//   - A prune threshold ε, passed with each query, truncates its
//     frontiers, trading bounded error for bounded cost on graphs whose
//     t-hop in-neighborhoods approach m. One engine answers at every ε.
//
// Answers are deterministic: no sampling noise, bit-identical across
// repeats.
//
// core's PullSS and the /source it serves are this engine's
// SingleSourceInto over the Monte Carlo index's diagonal at two prune
// thresholds: core.NewQuerier binds one engine per snapshot.
package linserve

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"cloudwalker/internal/graph"
	"cloudwalker/internal/linsys"
	"cloudwalker/internal/par"
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
	// Jacobi); 0 means GOMAXPROCS. The diagonal is bit-identical at any
	// count, so the CWLN section does not save it.
	Workers int
	// BuildPruneEps drops entries below this magnitude during the prep
	// row expansion (0 = exact). Prep cost grows with the T-hop
	// in-neighborhood of every node; pruning bounds it.
	BuildPruneEps float64
	// PruneEps is the engine's own query prune threshold (0 = exact):
	// SinglePair and SingleSource answer at it, and the CWLN section
	// saves it. SinglePairCtx and SingleSourceInto take theirs per call.
	// Each pruned frontier entry can bias a score by at most its value
	// times the remaining series mass, so eps around 1e-4 is invisible at
	// serving precision while keeping frontiers sparse.
	PruneEps float64
}

// DefaultOptions matches the paper's parameters (c = 0.6, T = 10).
func DefaultOptions() Options {
	return Options{C: 0.6, T: 10, Sweeps: 5}
}

// Validate reports the first invalid option.
func (o Options) Validate() error {
	if o.Sweeps <= 0 {
		return fmt.Errorf("linserve: sweep count %d must be positive", o.Sweeps)
	}
	if err := checkEps("build prune threshold", o.BuildPruneEps); err != nil {
		return err
	}
	return o.validateQuery()
}

// validateQuery checks the options queries read, all that New needs: the
// diagonal it binds was solved elsewhere.
func (o Options) validateQuery() error {
	if !(o.C > 0 && o.C < 1) { // also rejects NaN
		return fmt.Errorf("linserve: decay C=%g outside (0,1)", o.C)
	}
	if o.T < 0 {
		return fmt.Errorf("linserve: negative series length T=%d", o.T)
	}
	return checkEps("query prune threshold", o.PruneEps)
}

// checkEps refuses a prune threshold that is negative, NaN or infinite: at
// +Inf or NaN every entry is pruned and every score a silent 0.
func checkEps(what string, eps float64) error {
	if !(eps >= 0 && eps <= math.MaxFloat64) {
		return fmt.Errorf("linserve: %s %g is not finite and nonnegative", what, eps)
	}
	return nil
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
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
// It binds the graph, D, C and T; the prune threshold is each query's. It
// is safe for concurrent use: per-query working memory comes from one
// internal pool, whatever the threshold.
type Engine struct {
	opts  Options
	g     *graph.Graph
	diag  []float64
	ct    []float64    // ct[t] = C^t
	pool  sync.Pool    // *workspace
	edges atomic.Int64 // adjacency entries the query kernels have read
	rep   BuildReport
}

// Build assembles the exact row system a_i = Σ_t c^t (P^t e_i)∘(P^t e_i)
// (parallel across rows, dense-scratch expansion), solves A x = 1 with
// parallel Jacobi, and clamps the diagonal into [0,1].
func Build(g *graph.Graph, opts Options) (*Engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	a := sparse.NewMatrix(n, n)
	workers := opts.workers()
	par.For(n, workers, func() func(int) error {
		ws := newWorkspace(g)
		row := &ws.b
		rows := a.Writer()
		return func(i int) error {
			ws.exactRow(i, opts, row)
			row.gather(rows.Begin(len(row.nodes)))
			row.clear()
			rows.End(i)
			return nil
		}
	})
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
// snapshot section, or a Monte Carlo index's) to its graph. Sweeps,
// Workers and BuildPruneEps are Build's and are not read.
func New(g *graph.Graph, diag []float64, opts Options) (*Engine, error) {
	if err := opts.validateQuery(); err != nil {
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
	e.pool.New = func() any { return newWorkspace(g) }
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

// EdgesTraversed returns how many adjacency entries series queries have
// read so far: a pushed level reads its frontier's rows, a pulled one all
// m, and a pair level whose two sides pull together m once for both. Only
// tests call it, as instrumentation: the kernel tests check the count and
// the series benchmarks report ns per edge from it.
func (e *Engine) EdgesTraversed() int64 { return e.edges.Load() }

// exactRow accumulates a_i = Σ_t c^t (P^t e_i)∘(P^t e_i) into row by
// dense-scratch expansion (no map accumulators — prep on serving-sized
// graphs walks millions of frontier entries).
func (ws *workspace) exactRow(i int, opts Options, row *frontier) {
	row.addTo(int32(i), 1) // t = 0 term
	f := &ws.a
	f.init(i)
	ct := 1.0
	for t := 1; t <= opts.T && len(f.nodes) > 0; t++ {
		ws.stepP(f, opts.BuildPruneEps)
		ct *= opts.C
		for _, k := range f.nodes {
			v := f.val[k]
			row.addTo(k, ct*v*v)
		}
	}
	f.clear()
}

// SinglePair is SinglePairCtx without cancellation, at Options.PruneEps.
func (e *Engine) SinglePair(i, j int) (float64, error) {
	return e.SinglePairCtx(context.Background(), i, j, e.opts.PruneEps)
}

// SinglePairCtx evaluates s(i,j) = Σ_t c^t (P^t e_i)ᵀ D (P^t e_j) by dual
// forward expansion, every frontier pruned at eps. Deterministic; cost
// O(T·frontier) with the frontier bounded by eps. The two sides step
// together: a level where both would pull is one pass over the adjacency
// for both (stepPair), any other level steps each side alone. ctx is
// checked up front and once per series level (a level is the unit of work:
// one frontier expansion per side), so a deadline bounds latency to one
// level past expiry.
func (e *Engine) SinglePairCtx(ctx context.Context, i, j int, eps float64) (float64, error) {
	if err := checkEps("prune threshold", eps); err != nil {
		return 0, err
	}
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
	if e.g.InDegree(i) == 0 || e.g.InDegree(j) == 0 {
		return 0, nil // a side with no in-links is empty from level 1 on
	}
	ws := e.pool.Get().(*workspace)
	defer e.putWorkspace(ws)
	a, b := &ws.a, &ws.b
	defer a.clear()
	defer b.clear()
	a.init(i)
	b.init(j)
	s := 0.0
	staged, workA, workB := false, 0, 0
	for t := 1; t <= e.opts.T; t++ {
		if !staged {
			workA, workB = ws.stage(a), ws.stage(b)
		}
		var dot float64
		if ws.pulls(workA) && ws.pulls(workB) {
			if dot, workA, workB = ws.stepPair(a, b, e.diag, eps); len(a.nodes) == 0 || len(b.nodes) == 0 {
				break
			}
			staged = true
		} else {
			// Once a side is empty every later term is zero: stop before
			// expanding the other.
			if ws.spread(a, workA, eps); len(a.nodes) == 0 {
				break
			}
			if ws.spread(b, workB, eps); len(b.nodes) == 0 {
				break
			}
			dot = weightedDot(a, b, e.diag)
			staged = false
		}
		s += e.ct[t] * dot
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	return sparse.Clamp01(s), nil
}

// SingleSource evaluates s(q, ·) at Options.PruneEps, returning a fresh
// sparse vector.
func (e *Engine) SingleSource(q int) (*sparse.Vector, error) {
	out := &sparse.Vector{}
	if err := e.SingleSourceInto(context.Background(), q, e.opts.PruneEps, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SingleSourceInto evaluates S e_q = Σ_t c^t (Pᵀ)^t D P^t e_q into out
// (reset first, keeping capacity): the exact forward pass v_t = P^t e_q,
// then the backward Horner pass, all on the pooled workspace, every
// frontier of both pruned at eps. ctx is checked up front and once per
// level of either pass.
func (e *Engine) SingleSourceInto(ctx context.Context, q int, eps float64, out *sparse.Vector) error {
	if err := checkEps("prune threshold", eps); err != nil {
		return err
	}
	if err := e.checkNode(q); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ws := e.pool.Get().(*workspace)
	defer e.putWorkspace(ws)
	f := &ws.a
	defer f.clear() // a cancelled query returns mid-pass
	// Forward pass, snapshotting D v_t at each level for the backward
	// sweep. Level t reuses the capacity an earlier query left at t.
	ws.levels = ws.levels[:0]
	f.init(q)
	for t := 0; ; t++ {
		ws.levels = slices.Grow(ws.levels, 1)[:t+1]
		lv := &ws.levels[t]
		lv.idx, lv.val = lv.idx[:0], lv.val[:0]
		for _, i := range f.nodes {
			if d := e.diag[i] * f.val[i]; d != 0 {
				lv.idx = append(lv.idx, i)
				lv.val = append(lv.val, d)
			}
		}
		if t == e.opts.T || len(f.nodes) == 0 {
			break
		}
		ws.stepP(f, eps)
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	f.clear()
	// Backward pass: w ← D v_t + c Pᵀ w from the last level down to 0, in f.
	for t := len(ws.levels) - 1; t >= 0; t-- {
		ws.stepPT(f, &ws.levels[t], e.opts.C, eps)
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	out.Idx, out.Val = out.Idx[:0], out.Val[:0]
	f.gather(out)
	out.Clamp01()
	out.Pin(q)
	return nil
}

func (e *Engine) putWorkspace(ws *workspace) {
	e.edges.Add(ws.edges)
	ws.edges = 0
	e.pool.Put(ws)
}

func (e *Engine) checkNode(i int) error {
	if i < 0 || i >= e.g.NumNodes() {
		return fmt.Errorf("linserve: node %d out of range [0,%d)", i, e.g.NumNodes())
	}
	return nil
}

// frontier is a dense-backed sparse working vector: val is zero outside
// nodes, and nodes holds the support in the order it was written. All
// stored values are strictly positive between operations, which is what
// lets a zero bit pattern double as the membership test. A staged frontier
// (stage, stepPair) holds shares instead, and may list a node whose share
// underflowed to 0. acc and spare are the arrays a step builds the next
// vector in (acc is all zero between steps); finish trades them for val
// and nodes.
type frontier struct {
	val   []float64
	nodes []int32
	acc   []float64
	spare []int32
}

func newFrontier(n int) frontier {
	return frontier{val: make([]float64, n), acc: make([]float64, n)}
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

// finish makes the vector a step built in (acc, spare) f's, and takes f's
// zeroed arrays back as the next step's scratch.
func (f *frontier) finish(dst []float64, nodes []int32) {
	f.clear()
	f.acc, f.val = f.val, dst
	f.spare, f.nodes = f.nodes, nodes
}

// addTo accumulates v (> 0) at index i, tracking membership.
func (f *frontier) addTo(i int32, v float64) {
	if f.val[i] == 0 {
		f.nodes = append(f.nodes, i)
	}
	f.val[i] += v
}

// scanAt: a support of more than 1/scanAt of the indices is put in order
// by reading it off the dense array, a smaller one by sorting it (measured:
// slices.Sort ~25 ns an entry at 10³ entries, the scan ~0.8 ns an index).
const scanAt = 32

// gather appends the support to out in index order.
func (f *frontier) gather(out *sparse.Vector) {
	if len(f.nodes)*scanAt < len(f.val) {
		slices.Sort(f.nodes)
	} else {
		f.nodes = f.nodes[:0]
		for i, v := range f.val {
			if v != 0 {
				f.nodes = append(f.nodes, int32(i))
			}
		}
	}
	out.Idx, out.Val = slices.Grow(out.Idx, len(f.nodes)), slices.Grow(out.Val, len(f.nodes))
	for _, i := range f.nodes {
		out.Idx = append(out.Idx, i)
		out.Val = append(out.Val, f.val[i])
	}
}

// b2i is 1 for true and 0 for false. The compiler sets it from the flags
// (SETcc), so the kernels below count and select with it instead of
// branching on data that goes either way.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// keep is x when k is 1 and +0 when k is 0.
func keep(x float64, k int) float64 {
	return math.Float64frombits(math.Float64bits(x) & -uint64(k))
}

// fresh is 1 when x, a stored value (+0 or > 0), was never written.
func fresh(x float64) int { return b2i(math.Float64bits(x) == 0) }

// scatter adds x (> 0) into dst at every index of row and appends each
// index it touches first to nodes. A first touch is counted, not branched
// on: every entry writes its index at the support's tail, and the tail
// moves on only over an index whose old value was 0.
func scatter(dst []float64, nodes, row []int32, x float64) []int32 {
	tail := len(nodes)
	nodes = slices.Grow(nodes, len(row))[:tail+len(row)]
	for _, k := range row {
		old := dst[k]
		nodes[tail] = k
		tail += fresh(old)
		dst[k] = old + x
	}
	return nodes[:tail]
}

// sumAt returns Σ_i x[at[i]] on four running sums: over a hub's row one sum
// would wait out an add latency per entry.
func sumAt(x []float64, at []int32) float64 {
	var s0, s1, s2, s3 float64
	for ; len(at) >= 4; at = at[4:] {
		s0 += x[at[0]]
		s1 += x[at[1]]
		s2 += x[at[2]]
		s3 += x[at[3]]
	}
	for _, i := range at {
		s0 += x[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// level is a frozen forward-pass frontier, already multiplied by the
// diagonal: the D v_t term of the backward recursion.
type level struct {
	idx []int32
	val []float64
}

// workspace is the pooled per-query state: two frontiers (the two sides
// of a pair query; single-source runs both passes on a) and the
// forward-level snapshots. Its dense arrays take 32 bytes a node.
type workspace struct {
	g      *graph.Graph
	a, b   frontier
	levels []level
	edges  int64 // adjacency entries read since the last putWorkspace
}

func newWorkspace(g *graph.Graph) *workspace {
	n := g.NumNodes()
	return &workspace{g: g, a: newFrontier(n), b: newFrontier(n)}
}

// pullAt is the direction crossover of both matvecs, as a fraction of m:
// a level whose push would read fewer than pullAt·m adjacency entries is
// pushed, any other is pulled over all m. A pushed entry is a random
// read-modify-write that counts a first touch without a branch, a pulled
// one a load and an add, its sum written once; a pair level where both
// sides pull reads each entry once for both. Median per query on a 2-vCPU
// box, for pullAt = 0.05 / 0.15 / 0.3 / 0.45 / 0.6: on G4k at prune 1e-4
// a pair reads 0.60 / 0.57 / 0.51 / 0.50 / 0.56 ms and a source 1.04 /
// 1.01 / 0.93 / 0.94 / 1.02 ms; on G100k a source 21.2 / 19.6 / 17.9 /
// 17.2 / 16.9 ms at prune 1e-4 and 5.7 / 2.3 / 2.3 / 2.2 / 2.1 ms at 1e-3,
// a pair 17.3 / 17.2 / 12.5 / 10.4 / 10.9 ms at 1e-4 and 0.60 / 0.32 /
// 0.34 / 0.34 / 0.35 ms at 3e-3. Tests force it to 0 and +Inf; nothing
// else writes it.
var pullAt = 0.3

// pulls reports whether a level whose push would read work adjacency
// entries is pulled over all m instead.
func (ws *workspace) pulls(work int) bool {
	return !(float64(work) < pullAt*float64(ws.g.NumEdges()))
}

// read counts the adjacency entries a level reads: work if it is pushed,
// m if it is pulled.
func (ws *workspace) read(work int, pulled bool) {
	if pulled {
		work = ws.g.NumEdges()
	}
	ws.edges += int64(work)
}

// keepAbove finishes a push: the sums in val over nodes are final, so the
// prune threshold is applied here, where the support is written. It
// selects instead of branching: each node is written at the tail, which
// moves on only over a kept one, and a dropped value is zeroed by a mask.
func keepAbove(val []float64, nodes []int32, eps float64) []int32 {
	kept := 0
	for _, k := range nodes {
		v := val[k]
		above := b2i(v > eps)
		nodes[kept] = k
		kept += above
		val[k] = keep(v, above)
	}
	return nodes[:kept]
}

// stage turns f's values into the shares a step of P spreads, f_i/|In(i)|,
// and returns the entries a push of them reads, Σ|In(i)|. A node without
// in-links keeps its value: no pull reads it (it is in no out-row) and
// its push row is empty, so dangling columns lose their mass, as walkers
// do, without a branch.
func (ws *workspace) stage(f *frontier) int {
	work := 0
	for _, i := range f.nodes {
		d := ws.g.InDegree(int(i))
		f.val[i] /= float64(max(d, 1))
		work += d
	}
	return work
}

// stepP advances f ← P f, (P f)(k) = Σ_{i∈Out(k)} f_i/|In(i)|, keeping
// only entries above eps.
func (ws *workspace) stepP(f *frontier, eps float64) {
	ws.spread(f, ws.stage(f), eps)
}

// spread finishes stepP over a staged f whose push reads work entries. A
// push scatters each share over In(i); a pull has every k sum the shares
// of Out(k) and write the sum once, thresholded.
func (ws *workspace) spread(f *frontier, work int, eps float64) {
	pull := ws.pulls(work)
	ws.read(work, pull)
	src, dst, nodes := f.val, f.acc, f.spare[:0]
	if pull {
		out := ws.g.OutRows()
		adj := out.Adj
		for r, k := range out.Node {
			d := out.Deg[r]
			if s := sumAt(src, adj[:d]); s > eps {
				dst[k] = s
				nodes = append(nodes, k)
			}
			adj = adj[d:]
		}
	} else {
		for _, i := range f.nodes {
			if share := src[i]; share != 0 { // 0 only on an underflow
				nodes = scatter(dst, nodes, ws.g.InNeighbors(int(i)), share)
			}
		}
		nodes = keepAbove(dst, nodes, eps)
	}
	f.finish(dst, nodes)
}

// stepPair is spread for both staged sides of a pair query at a level
// where both pull, in one pass over the adjacency: each row is summed for
// both sides, each on sumAt's four lanes, both sums are thresholded, the
// level's dot term is accumulated, and both sides' next shares are
// written, so the level needs no stage pass, no second adjacency pass and
// no weightedDot pass. Both supports come out in row order, which is the
// order weightedDot would iterate either one in, so x·D·y and y·D·x are
// both summed and dot is the one weightedDot takes. workA and workB are
// the next level's push costs.
func (ws *workspace) stepPair(a, b *frontier, diag []float64, eps float64) (dot float64, workA, workB int) {
	ws.edges += int64(ws.g.NumEdges()) // m entries, read once for both sides
	out, g := ws.g.OutRows(), ws.g
	srcA, dstA, nodesA := a.val, a.acc, a.spare[:0]
	srcB, dstB, nodesB := b.val, b.acc, b.spare[:0]
	var xDy, yDx float64
	adj, off := out.Adj, 0
	for r, k := range out.Node {
		end := off + int(out.Deg[r])
		row := adj[off:end]
		off = end
		// sumAt over both sides at once, on its four lanes each, written
		// out: as a call per row the pass ran ~4% slower on G4k.
		var x0, x1, x2, x3, y0, y1, y2, y3 float64
		for ; len(row) >= 4; row = row[4:] {
			i0, i1, i2, i3 := row[0], row[1], row[2], row[3]
			x0 += srcA[i0]
			y0 += srcB[i0]
			x1 += srcA[i1]
			y1 += srcB[i1]
			x2 += srcA[i2]
			y2 += srcB[i2]
			x3 += srcA[i3]
			y3 += srcB[i3]
		}
		for _, i := range row {
			x0 += srcA[i]
			y0 += srcB[i]
		}
		x, y := (x0+x1)+(x2+x3), (y0+y1)+(y2+y3)
		aboveX, aboveY := b2i(x > eps), b2i(y > eps)
		if aboveX|aboveY == 0 {
			// Neither side keeps k: nothing to add, and both destinations
			// already read 0. On a large graph most rows end here, and the
			// rest would miss the cache four times.
			continue
		}
		x, y = keep(x, aboveX), keep(y, aboveY)
		w := diag[k]
		xDy += x * w * y
		yDx += y * w * x
		in := g.InDegree(int(k))
		workA += in & -aboveX
		workB += in & -aboveY
		div := float64(max(in, 1))
		dstA[k], dstB[k] = x/div, y/div
		// Appended on both sides, kept on the side that keeps k.
		nodesA = append(nodesA, k)[:len(nodesA)+aboveX]
		nodesB = append(nodesB, k)[:len(nodesB)+aboveY]
	}
	a.finish(dstA, nodesA)
	b.finish(dstB, nodesB)
	if len(b.nodes) < len(a.nodes) {
		return yDx, workA, workB
	}
	return xDy, workA, workB
}

// stepPT advances w ← lv + c·Pᵀ w, (c·Pᵀ w)(i) = c/|In(i)| · Σ_{k∈In(i)} w_k,
// keeping only entries above eps: one Horner step of the backward pass.
// Either direction sums raw w_k and divides once per node: the pull over
// In(i) on top of lv scattered into place, the push along Out(k), then
// scaled and joined with lv.
func (ws *workspace) stepPT(w *frontier, lv *level, c, eps float64) {
	work := 0
	for _, k := range w.nodes {
		work += ws.g.OutDegree(int(k))
	}
	pull := ws.pulls(work)
	ws.read(work, pull)
	src, dst, nodes := w.val, w.acc, w.spare[:0]
	if pull {
		for k, i := range lv.idx {
			if v := lv.val[k]; ws.g.InDegree(int(i)) > 0 {
				dst[i] = v
			} else if v > eps { // no row will visit i: lv is all it gets
				dst[i] = v
				nodes = append(nodes, i)
			}
		}
		in := ws.g.InRows()
		adj := in.Adj
		for r, i := range in.Node {
			d := in.Deg[r]
			if v := dst[i] + c*sumAt(src, adj[:d])/float64(d); v > eps {
				dst[i] = v
				nodes = append(nodes, i)
			} else {
				dst[i] = 0
			}
			adj = adj[d:]
		}
	} else {
		for _, k := range w.nodes {
			nodes = scatter(dst, nodes, ws.g.OutNeighbors(int(k)), src[k])
		}
		reached := nodes[:0]
		for _, i := range nodes {
			// An underflow to zero leaves the support, or lv would add i twice.
			if dst[i] = c * dst[i] / float64(ws.g.InDegree(int(i))); dst[i] != 0 {
				reached = append(reached, i)
			}
		}
		nodes = slices.Grow(reached, len(lv.idx))
		tail := len(nodes)
		nodes = nodes[:tail+len(lv.idx)]
		for k, i := range lv.idx {
			old := dst[i]
			nodes[tail] = i
			tail += fresh(old)
			dst[i] = old + lv.val[k]
		}
		nodes = keepAbove(dst, nodes[:tail], eps)
	}
	w.finish(dst, nodes)
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
