// Package gen produces the synthetic graphs that stand in for the paper's
// evaluation datasets (wiki-vote, wiki-talk, twitter-2010, uk-union,
// clue-web). The originals are SNAP / LAW downloads up to 400 GB; the
// substitution is documented in DESIGN.md §2: generators reproduce the
// degree structure (average degree and power-law skew) that drives
// CloudWalker's costs, and the Profile table scales each dataset down by a
// constant factor so the full experiment matrix runs on one machine.
package gen

import (
	"fmt"
	"runtime"
	"sync"

	"cloudwalker/internal/graph"
	"cloudwalker/internal/xrand"
)

// ErdosRenyi samples a directed G(n, m) graph: m edges drawn uniformly with
// replacement (duplicates and self-loops are dropped by the builder, so the
// final edge count can be slightly below m).
func ErdosRenyi(n, m int, seed uint64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: ErdosRenyi needs n > 0, got %d", n)
	}
	if m < 0 {
		return nil, fmt.Errorf("gen: negative edge count %d", m)
	}
	src := xrand.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		if err := b.AddEdge(src.Intn(n), src.Intn(n)); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// BarabasiAlbert grows a directed preferential-attachment graph: each new
// node attaches k out-edges to existing nodes chosen proportionally to
// their current in-degree (plus one, so isolated nodes stay reachable).
// The resulting in-degree distribution follows a power law, like the
// paper's social graphs.
func BarabasiAlbert(n, k int, seed uint64) (*graph.Graph, error) {
	if n <= 0 || k <= 0 {
		return nil, fmt.Errorf("gen: BarabasiAlbert needs n, k > 0, got n=%d k=%d", n, k)
	}
	src := xrand.New(seed)
	b := graph.NewBuilder(n)
	// targets repeats node v once per (in-degree+1); sampling an index
	// uniformly implements preferential attachment.
	targets := make([]int32, 0, n*(k+1))
	targets = append(targets, 0)
	for u := 1; u < n; u++ {
		deg := k
		if u < k {
			deg = u // early nodes cannot have k distinct predecessors
		}
		for e := 0; e < deg; e++ {
			v := int(targets[src.Intn(len(targets))])
			if v == u {
				v = (u + 1 + src.Intn(u)) % u // avoid self loop, stay < u
			}
			if err := b.AddEdge(u, v); err != nil {
				return nil, err
			}
			targets = append(targets, int32(v))
		}
		targets = append(targets, int32(u))
	}
	return b.Build()
}

// RMATParams are the quadrant probabilities of the recursive-matrix
// generator (Chakrabarti et al.). They must be positive and sum to ~1.
type RMATParams struct {
	A, B, C, D float64
}

// DefaultRMAT is the standard skewed parameterization used by Graph500 and
// by web-graph models; it yields power-law in- and out-degrees.
var DefaultRMAT = RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05}

// RMAT samples m edges from an R-MAT distribution over 2^scale nodes, then
// truncates node ids to n (so the graph has exactly n nodes with the same
// skew). Noise is added to the quadrant probabilities per recursion level
// to avoid exact self-similar artifacts.
//
// Edge e takes draws 5·scale·e onwards of the one stream xrand.New(seed).
// The edges are drawn on every core: each worker takes a contiguous run
// of them, starting from a copy of the stream advanced to its first edge's
// draws (xrand.Source.Advance), so the graph is the same at any GOMAXPROCS.
func RMAT(n, m int, p RMATParams, seed uint64) (*graph.Graph, error) {
	return rmat(n, m, p, seed, runtime.GOMAXPROCS(0))
}

// rmat is RMAT with the worker count fixed.
func rmat(n, m int, p RMATParams, seed uint64, workers int) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: RMAT needs n > 0, got %d", n)
	}
	if m < 0 {
		return nil, fmt.Errorf("gen: negative edge count %d", m)
	}
	sum := p.A + p.B + p.C + p.D
	if p.A <= 0 || p.B <= 0 || p.C <= 0 || p.D <= 0 || sum < 0.99 || sum > 1.01 {
		return nil, fmt.Errorf("gen: bad RMAT params %+v (sum %g)", p, sum)
	}
	scale := 0
	for 1<<scale < n {
		scale++
	}
	src, dst := make([]int32, m), make([]int32, m)
	var wg sync.WaitGroup
	for w := range workers {
		lo, hi := w*m/workers, (w+1)*m/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := xrand.New(seed)
			rng.Advance(uint64(lo) * uint64(5*scale))
			draws := make([]float64, 5*scale)
			src, dst := src[lo:hi], dst[lo:hi]
			for e := range src {
				u, v := rmatEdge(rng, draws, p)
				// Fold out-of-range ids back into [0, n) preserving low
				// bits (keeps the hub structure concentrated on small ids).
				src[e], dst[e] = int32(u%n), int32(v%n)
			}
		}()
	}
	wg.Wait()
	b := graph.NewBuilder(n)
	if err := b.AddEdges(src, dst); err != nil {
		return nil, err
	}
	return b.Build()
}

// rmatEdge draws one edge from 5·scale uniforms: per level, four noisy
// quadrant weights and a coin. The draws come in one Float64s block, which
// keeps the generator state in registers, and the quadrant is picked
// without branching on the coin: it first decides the row (u's bit), then,
// against that row's split point, the column (v's bit).
func rmatEdge(src *xrand.Source, draws []float64, p RMATParams) (int, int) {
	src.Float64s(draws)
	u, v := 0, 0
	for ; len(draws) >= 5; draws = draws[5:] {
		// ±10% multiplicative noise per level, renormalized.
		a := p.A * (0.9 + 0.2*draws[0])
		bq := p.B * (0.9 + 0.2*draws[1])
		c := p.C * (0.9 + 0.2*draws[2])
		d := p.D * (0.9 + 0.2*draws[3])
		total := a + bq + c + d
		r := draws[4] * total
		top := a + bq
		hiU := b2i(r >= top)
		split := [2]float64{a, top + c}[hiU]
		u = u<<1 | hiU
		v = v<<1 | b2i(r >= split)
	}
	return u, v
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Copying generates a directed "copying model" graph (Kumar et al.): each
// new node picks a random prototype and copies each of its out-edges with
// probability 1-beta, otherwise links to a uniform random node. It models
// citation/recommendation networks (the intro's recommender use case).
func Copying(n, k int, beta float64, seed uint64) (*graph.Graph, error) {
	if n <= 0 || k <= 0 {
		return nil, fmt.Errorf("gen: Copying needs n, k > 0, got n=%d k=%d", n, k)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("gen: Copying beta %g outside [0,1]", beta)
	}
	src := xrand.New(seed)
	b := graph.NewBuilder(n)
	// Keep an out-edge table for prototype copying.
	outs := make([][]int32, n)
	for u := 0; u < n; u++ {
		deg := k
		if u == 0 {
			continue // first node has nothing to link to
		}
		if u < k {
			deg = u
		}
		proto := src.Intn(u)
		row := make([]int32, 0, deg)
		for e := 0; e < deg; e++ {
			var v int
			if e < len(outs[proto]) && src.Float64() > beta {
				v = int(outs[proto][e])
			} else {
				v = src.Intn(u)
			}
			if v == u {
				v = proto
			}
			if err := b.AddEdge(u, v); err != nil {
				return nil, err
			}
			row = append(row, int32(v))
		}
		outs[u] = row
	}
	return b.Build()
}

// Cycle returns the directed n-cycle 0->1->...->n-1->0. Every node has
// in-degree and out-degree exactly 1; SimRank on it has a closed form used
// by tests.
func Cycle(n int) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: Cycle needs n > 0, got %d", n)
	}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		if err := b.AddEdge(u, (u+1)%n); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// Star returns a graph where leaves 1..n-1 all point to hub 0. Leaves have
// no in-links (a dangling-in fixture) and the hub's in-neighborhood is
// every leaf; tests use it for the dangling-node edge cases.
func Star(n int) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: Star needs n > 0, got %d", n)
	}
	b := graph.NewBuilder(n)
	for u := 1; u < n; u++ {
		if err := b.AddEdge(u, 0); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// Complete returns the complete digraph on n nodes without self-loops.
func Complete(n int) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: Complete needs n > 0, got %d", n)
	}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			if err := b.AddEdge(u, v); err != nil {
				return nil, err
			}
		}
	}
	return b.Build()
}

// PlantedPartition generates a cyclic citation graph with planted
// communities: every node is cited by ~inDegree nodes, a `loyalty`
// fraction of which come from the node's own community (node v belongs
// to community v % communities). Because in-neighborhoods are sparse,
// same-community pairs often share no direct citer — similarity evidence
// lives in multi-hop chains, which is the regime separating SimRank from
// one-hop measures like co-citation (the effectiveness experiment).
func PlantedPartition(communities, perCommunity, inDegree int, loyalty float64, seed uint64) (*graph.Graph, error) {
	if communities <= 0 || perCommunity <= 0 || inDegree <= 0 {
		return nil, fmt.Errorf("gen: PlantedPartition needs positive sizes, got %d/%d/%d",
			communities, perCommunity, inDegree)
	}
	if loyalty < 0 || loyalty > 1 {
		return nil, fmt.Errorf("gen: PlantedPartition loyalty %g outside [0,1]", loyalty)
	}
	n := communities * perCommunity
	src := xrand.New(seed)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		home := v % communities
		for e := 0; e < inDegree; e++ {
			var citer int
			if src.Float64() < loyalty {
				citer = home + communities*src.Intn(perCommunity)
			} else {
				citer = src.Intn(n)
			}
			if citer == v {
				continue
			}
			if err := b.AddEdge(citer, v); err != nil {
				return nil, err
			}
		}
	}
	return b.Build()
}

// Bipartite returns a directed bipartite graph: each of the nL left nodes
// points to k random right nodes. Node ids: left [0,nL), right [nL,nL+nR).
// It models the user->item graphs of the recommender example.
func Bipartite(nL, nR, k int, seed uint64) (*graph.Graph, error) {
	if nL <= 0 || nR <= 0 || k <= 0 {
		return nil, fmt.Errorf("gen: Bipartite needs positive sizes, got %d/%d/%d", nL, nR, k)
	}
	src := xrand.New(seed)
	b := graph.NewBuilder(nL + nR)
	for u := 0; u < nL; u++ {
		for e := 0; e < k; e++ {
			if err := b.AddEdge(u, nL+src.Intn(nR)); err != nil {
				return nil, err
			}
		}
	}
	return b.Build()
}
