package walk

import (
	"math/bits"
	"slices"
	"sync/atomic"
	"unsafe"

	"cloudwalker/internal/graph"
	"cloudwalker/internal/sparse"
)

// The coded indexing row. Row i of A x = 1 is a_i = Σ_t c^t (P^t e_i)∘(P^t e_i),
// and its estimate is a pure function of integers: how many of the row's
// walkers stood on node v at level t. A row is kept as those deposits,
// sorted by (node, level), one per pair, each one machine word
//
//	node << lowBits | level << cntBits | count
//
// with bits(R) for the count, bits(T) for the level, bits(n−1) for the
// node: a uint32 when the three fit 32 bits (R = 100, T = 10 fits up to
// 2M nodes), else a uint64. A deposit's float, DepositValue — the
// unbiased c^t·k(k−1)/(R(R−1)), not the paper's plug-in c^t·(k/R)² —
// comes from a 2^lowBits-entry table indexed by the word's low field.
// A lone walker's deposit is worth exactly 0 there, so the walk never
// makes one, and a row stores only the deposits worth more (emit drops
// those that underflow): adding 0.0 is exact, so the words left out
// change no bit of any entry. Entry a_ij is the sum of node j's
// stored deposits in level order — the order they are stored in, so
// decoding a row and multiplying it by a vector are one scan each
// (decode, rowDot).

// RowBits bounds bits(T) + bits(R) of a row estimate: the level and
// count fields of a deposit together, and so the 2^RowBits entries
// (128 MB) of the largest value table.
const RowBits = 24

// DepositValue is what k of a row's R walkers standing on one node at
// level t add to that node's entry, ct = c^t: ct·k(k−1)/(R(R−1)), the
// unbiased estimate of c^t·p² for a node each walker reaches with
// probability p (the plug-in ct·(k/R)² overshoots it by ct·p(1−p)/R).
// It is 0 for k < 2, and needs R ≥ 2.
func DepositValue(ct float64, k, R int) float64 {
	if k < 2 {
		return 0
	}
	return ct * (float64(k) * float64(k-1) * (1 / (float64(R) * float64(R-1))))
}

// rowCode is the deposit layout and the value table of one (n, T, R, c).
type rowCode struct {
	T, R    int
	c       float64
	cntBits uint // bits(R)
	lowBits uint // bits(T) + bits(R): the value table's index
	wide    bool // node, level and count need a 64-bit word
	// tab holds entry level<<cntBits|count's DepositValue, exactly 1 at
	// level 0 (the t = 0 diagonal term).
	tab []float64
}

func newRowCode(n, T, R int, c float64) *rowCode {
	cb, lb := uint(bits.Len(uint(R))), uint(bits.Len(uint(T)))
	rc := &rowCode{
		T: T, R: R, c: c, cntBits: cb, lowBits: cb + lb,
		wide: bits.Len(uint(max(n-1, 0)))+int(cb+lb) > 32,
		tab:  make([]float64, 1<<(cb+lb)),
	}
	per := 1 << cb
	for cnt := range rc.tab[:per] {
		rc.tab[cnt] = 1
	}
	ct := 1.0
	for l := 1; l <= T; l++ {
		ct *= c
		for cnt := range rc.tab[l*per : (l+1)*per] {
			rc.tab[l*per+cnt] = DepositValue(ct, cnt, R)
		}
	}
	return rc
}

// emit sorts the estimator's deposit list and appends to dst, one word
// each, the deposits the value table does not value at 0. The walk
// leaves one deposit per (node, level), so sorting the whole word puts
// each node's deposits in level order and nothing is left to merge. Also
// returns the number of distinct nodes stored and the diagonal entry a_ii.
func emit[W uint32 | uint64](re *RowEstimator, i int, dst []W) (row []W, cols int, diag float64) {
	slices.Sort(re.pairs)
	tab, low := re.code.tab, re.code.lowBits
	prev := ^uint64(0)
	for _, p := range re.pairs {
		v := tab[uint32(p)]
		if v == 0 {
			// The deposit underflowed: at c = 0.6, c^t leaves the
			// doubles past t ≈ 1460, and RowBits admits T up to
			// 2^18 − 1 at R = 50.
			continue
		}
		node := p >> 32
		if node != prev {
			cols++
			prev = node
		}
		if int(node) == i {
			diag += v
		}
		dst = append(dst, W(node)<<low|W(uint32(p)))
	}
	return dst, cols, diag
}

// decode appends the float row of a coded row to out (reset first): one
// entry per node, its deposits' table values summed in level order from
// zero (0 + v is v exactly, so the first term carries no rounding).
func decode[W uint32 | uint64](row []W, low uint, tab []float64, out *sparse.Vector) {
	if cap(out.Idx) == 0 {
		out.Idx = make([]int32, 0, len(row))
		out.Val = make([]float64, 0, len(row))
	}
	out.Idx, out.Val = out.Idx[:0], out.Val[:0]
	mask := W(1)<<low - 1
	last := ^W(0) // no node: a shifted word has its high bits clear
	for _, w := range row {
		if j := w >> low; j != last {
			out.Idx = append(out.Idx, int32(j))
			out.Val = append(out.Val, 0)
			last = j
		}
		out.Val[len(out.Val)-1] += tab[w&mask]
	}
}

// rowDot is decode fused with the solver's row product: the same
// per-node sums, each multiplied by x[j] as it completes and accumulated
// as sparse.Matrix.RowDot accumulates the float row — same products,
// same order, same bits. One load per word and one loop-carried node:
// re-reading the word to find each node's end measured 20% slower.
func rowDot[W uint32 | uint64](row []W, i int, low uint, tab, x []float64) (diag, off, full float64) {
	if len(row) == 0 {
		return 0, 0, 0
	}
	low &= 8*uint(unsafe.Sizeof(row[0])) - 1 // a shift the compiler need not range-check
	mask := W(1)<<low - 1
	j, v := row[0]>>low, 0.0
	flush := func() {
		// Rounded here, so no platform fuses it into a sum.
		p := float64(v * x[j])
		full += p
		if int(j) == i {
			diag = v
		} else {
			off += p
		}
	}
	for _, w := range row {
		if nj := w >> low; nj != j {
			flush()
			j, v = nj, 0
		}
		v += tab[w&mask]
	}
	flush()
	return diag, off, full
}

// RowSystem is the indexing system A held as coded rows: what
// core.BuildSystem returns and the solver (linsys.Matrix) reads. Rows are
// written concurrently, one RowWriter per goroutine, and read only after
// the writers are done.
type RowSystem struct {
	g      *graph.Graph
	code   *rowCode
	rows32 [][]uint32 // the rows, in whichever word code.wide names
	rows64 [][]uint64
	diag   []float64 // a_ii, captured when the row was emitted
	nnz    atomic.Int64
	slabs  atomic.Int64 // bytes of the rows' slabs
}

// NewRowSystem returns the empty system of graph g for rows of R ≥ 2
// walkers and T levels.
func NewRowSystem(g *graph.Graph, T, R int, c float64) *RowSystem {
	return newRowSystem(g, newRowCode(g.NumNodes(), T, R, c))
}

func newRowSystem(g *graph.Graph, code *rowCode) *RowSystem {
	n := g.NumNodes()
	s := &RowSystem{g: g, code: code, diag: make([]float64, n)}
	if code.wide {
		s.rows64 = make([][]uint64, n)
	} else {
		s.rows32 = make([][]uint32, n)
	}
	return s
}

// Rows returns the number of rows; the system is square.
func (s *RowSystem) Rows() int { return len(s.diag) }

// Cols returns the number of columns.
func (s *RowSystem) Cols() int { return len(s.diag) }

// NNZ returns the number of nonzero entries of A: distinct (row, node)
// pairs with a deposit worth more than 0.
func (s *RowSystem) NNZ() int { return int(s.nnz.Load()) }

// Bytes returns what the system holds: the rows' words, the row table,
// the diagonal and the value table. Each slab holds exactly its rows, so
// the figure does not depend on how rows were shared out among writers.
func (s *RowSystem) Bytes() int64 {
	return s.slabs.Load() + int64(s.Rows())*int64(unsafe.Sizeof([]uint32{})+8) + 8*int64(len(s.code.tab))
}

// Diag returns a_ii (0 for a row not written).
func (s *RowSystem) Diag(i int) float64 { return s.diag[i] }

// RowDot returns a_ii and row i's products with x summed without the
// diagonal term and with it (see sparse.Matrix.RowDot).
func (s *RowSystem) RowDot(i int, x []float64) (diag, off, full float64) {
	if s.code.wide {
		return rowDot(s.rows64[i], i, s.code.lowBits, s.code.tab, x)
	}
	return rowDot(s.rows32[i], i, s.code.lowBits, s.code.tab, x)
}

// Matrix materialises the system as floats, the form sparse.WriteMatrix
// persists and the distributed engines assemble.
func (s *RowSystem) Matrix() *sparse.Matrix {
	m := sparse.NewMatrix(s.Rows(), s.Rows())
	w := m.Writer()
	for i := range s.diag {
		if s.code.wide {
			decode(s.rows64[i], s.code.lowBits, s.code.tab, w.Begin(len(s.rows64[i])))
		} else {
			decode(s.rows32[i], s.code.lowBits, s.code.tab, w.Begin(len(s.rows32[i])))
		}
		w.End(i)
	}
	return m
}

// RowWriter estimates rows and stores them in slabs of the system; use
// one per goroutine. After its first runs of rows a run allocates only
// its slab.
type RowWriter struct {
	sys  *RowSystem
	est  *RowEstimator
	s32  []uint32 // a run's words, before they are copied to its slab
	s64  []uint64
	ends []int // where each of the run's rows ends in s32 or s64
}

// Writer returns a new row writer for s.
func (s *RowSystem) Writer() *RowWriter {
	est := NewRowEstimator(s.g, s.code.R)
	est.code = s.code
	return &RowWriter{sys: s, est: est}
}

// Add estimates rows [lo, hi) with all R walkers each and stores them in
// one slab of exactly their words. Walker w of row i draws from
// xrand.NewStream(seed, i·R+w), so neither the rows nor the system's
// Bytes depend on how runs are shared out among writers.
func (w *RowWriter) Add(lo, hi int, seed uint64) {
	if w.sys.code.wide {
		add(w, w.sys.rows64, &w.s64, lo, hi, seed)
	} else {
		add(w, w.sys.rows32, &w.s32, lo, hi, seed)
	}
}

// add emits rows [lo, hi) one after another into the writer's run
// buffer, then copies them into a slab of their own.
func add[W uint32 | uint64](w *RowWriter, rows [][]W, run *[]W, lo, hi int, seed uint64) {
	s, buf, ends := w.sys, (*run)[:0], w.ends[:0]
	nnz := 0
	for i := lo; i < hi; i++ {
		w.est.walkRow(i, seed)
		var cols int
		buf, cols, s.diag[i] = emit(w.est, i, buf)
		ends, nnz = append(ends, len(buf)), nnz+cols
	}
	slab := make([]W, len(buf))
	copy(slab, buf)
	s.slabs.Add(int64(len(slab)) * int64(unsafe.Sizeof(slab[0])))
	s.nnz.Add(int64(nnz))
	at := 0
	for k, end := range ends {
		rows[lo+k], at = slab[at:end:end], end
	}
	*run, w.ends = buf, ends
}
