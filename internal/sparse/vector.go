// Package sparse implements the sparse vectors and CSR matrices that
// CloudWalker's offline indexing and the LIN baseline are built on, and
// the SimRank transition operator P that tests use as the exact reference.
//
// P is the column-stochastic backward transition matrix of the graph:
// P[k][i] = 1/|In(i)| for k in In(i). P^t e_i is the t-step distribution of
// a random walk from node i along in-links — the quantity CloudWalker
// estimates with Monte Carlo and LIN computes exactly.
package sparse

import (
	"fmt"
	"slices"
	"sort"
)

// Vector is a sparse vector: parallel slices of strictly increasing indices
// and their values. The zero value is an empty vector.
type Vector struct {
	Idx []int32
	Val []float64
}

// NNZ returns the number of stored entries.
func (v *Vector) NNZ() int { return len(v.Idx) }

// Get returns the value at index i (0 if absent) by binary search.
func (v *Vector) Get(i int) float64 {
	p := sort.Search(len(v.Idx), func(k int) bool { return v.Idx[k] >= int32(i) })
	if p < len(v.Idx) && v.Idx[p] == int32(i) {
		return v.Val[p]
	}
	return 0
}

// Sum returns the sum of all values.
func (v *Vector) Sum() float64 {
	s := 0.0
	for _, x := range v.Val {
		s += x
	}
	return s
}

// WeightedDot returns sum_k a_k * w_k * b_k where w is a dense weight
// vector — the inner loop of MCSP: (P^t e_i)' D (P^t e_j).
func WeightedDot(a, b *Vector, w []float64) float64 {
	s := 0.0
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		switch {
		case a.Idx[i] < b.Idx[j]:
			i++
		case a.Idx[i] > b.Idx[j]:
			j++
		default:
			s += a.Val[i] * w[a.Idx[i]] * b.Val[j]
			i++
			j++
		}
	}
	return s
}

// SquareValues returns a new vector with every value squared (the
// Hadamard self-product used for the a_i rows). It is a test reference:
// exact index rows are built from it, no production path calls it.
func (v *Vector) SquareValues() *Vector {
	w := &Vector{Idx: slices.Clone(v.Idx), Val: make([]float64, len(v.Val))}
	for i, x := range v.Val {
		w.Val[i] = x * x
	}
	return w
}

// AddScaled returns a + s*b as a new sparse vector (sorted merge). It is
// a test reference: exact index rows are built from it.
func AddScaled(a *Vector, s float64, b *Vector) *Vector {
	out := &Vector{
		Idx: make([]int32, 0, len(a.Idx)+len(b.Idx)),
		Val: make([]float64, 0, len(a.Idx)+len(b.Idx)),
	}
	i, j := 0, 0
	for i < len(a.Idx) || j < len(b.Idx) {
		switch {
		case j >= len(b.Idx) || (i < len(a.Idx) && a.Idx[i] < b.Idx[j]):
			out.Idx = append(out.Idx, a.Idx[i])
			out.Val = append(out.Val, a.Val[i])
			i++
		case i >= len(a.Idx) || b.Idx[j] < a.Idx[i]:
			out.Idx = append(out.Idx, b.Idx[j])
			out.Val = append(out.Val, s*b.Val[j])
			j++
		default:
			out.Idx = append(out.Idx, a.Idx[i])
			out.Val = append(out.Val, a.Val[i]+s*b.Val[j])
			i++
			j++
		}
	}
	return out
}

// Clamp01 clamps x into [0,1], the range of a SimRank score: estimators
// sum sampled or truncated series that can overshoot by rounding.
func Clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Clamp01 clamps every stored value into [0,1] in place.
func (v *Vector) Clamp01() {
	for i := range v.Val {
		v.Val[i] = Clamp01(v.Val[i])
	}
}

// Pin sets entry q to exactly 1 (self-similarity by definition),
// inserting in place when q is absent (a shift within existing capacity
// instead of a two-vector merge allocation).
func (v *Vector) Pin(q int) {
	k := sort.Search(len(v.Idx), func(i int) bool { return v.Idx[i] >= int32(q) })
	if k < len(v.Idx) && v.Idx[k] == int32(q) {
		v.Val[k] = 1
		return
	}
	v.Idx = append(v.Idx, 0)
	v.Val = append(v.Val, 0)
	copy(v.Idx[k+1:], v.Idx[k:])
	copy(v.Val[k+1:], v.Val[k:])
	v.Idx[k] = int32(q)
	v.Val[k] = 1
}

// Dense scatters the vector into a dense slice of length n.
func (v *Vector) Dense(n int) []float64 {
	d := make([]float64, n)
	for i, idx := range v.Idx {
		d[idx] = v.Val[i]
	}
	return d
}

// Unit returns the sparse standard basis vector e_i.
func Unit(i int) *Vector {
	return &Vector{Idx: []int32{int32(i)}, Val: []float64{1}}
}

// Validate checks the strictly-increasing-index invariant.
func (v *Vector) Validate() error {
	if len(v.Idx) != len(v.Val) {
		return fmt.Errorf("sparse: index/value length mismatch %d/%d", len(v.Idx), len(v.Val))
	}
	for i := 1; i < len(v.Idx); i++ {
		if v.Idx[i-1] >= v.Idx[i] {
			return fmt.Errorf("sparse: indices not strictly increasing at %d", i)
		}
	}
	return nil
}

// Accumulator builds a sparse vector by accumulating (index, value) pairs
// in any order; ToVector sorts and merges them. It is the target of the
// Monte Carlo walk histograms.
type Accumulator struct {
	m map[int32]float64
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{m: make(map[int32]float64)}
}

// Add accumulates value at index i.
func (a *Accumulator) Add(i int32, value float64) {
	a.m[i] += value
}

// Len returns the number of distinct indices accumulated.
func (a *Accumulator) Len() int { return len(a.m) }

// ToVector freezes the accumulated entries into a sorted sparse Vector,
// dropping exact zeros.
func (a *Accumulator) ToVector() *Vector {
	v := &Vector{
		Idx: make([]int32, 0, len(a.m)),
		Val: make([]float64, 0, len(a.m)),
	}
	for i, x := range a.m {
		if x != 0 { // drop exact zeros produced by cancellation
			v.Idx = append(v.Idx, i)
		}
	}
	sort.Slice(v.Idx, func(x, y int) bool { return v.Idx[x] < v.Idx[y] })
	for _, i := range v.Idx {
		v.Val = append(v.Val, a.m[i])
	}
	return v
}
