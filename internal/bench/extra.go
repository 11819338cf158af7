package bench

import (
	"fmt"
	"time"

	"cloudwalker/internal/baseline/cocitation"
	"cloudwalker/internal/core"
	"cloudwalker/internal/exact"
	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/linsys"
	"cloudwalker/internal/xrand"
)

// RunEffectiveness backs the paper's motivating claim that SimRank
// "outperforms other similarity measures, such as co-citation"
// (experiment id "fig-effectiveness"). On a planted-communities graph
// where ground truth is known, it measures top-k precision of CloudWalker
// SimRank versus one-hop co-citation: co-citation only sees directly
// shared in-neighbors, so its precision collapses when evidence arrives
// through longer chains.
func RunEffectiveness(cfg Config) ([]*Table, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	const (
		communities = 8
		perCommuni  = 75
		inDegree    = 5
		loyalty     = 0.9
		k           = 10
		queries     = 30
	)
	n := communities * perCommuni
	// Planted-communities citation graph (cyclic, NOT bipartite): two
	// same-community nodes often share no direct citer (sparse in-
	// neighborhoods), so co-citation scores most community mates 0 —
	// while SimRank still finds them through citers-of-citers chains.
	src := xrand.New(cfg.Opts.Seed + 5)
	community := func(node int) int { return node % communities }
	g, err := gen.PlantedPartition(communities, perCommuni, inDegree, loyalty, cfg.Opts.Seed+5)
	if err != nil {
		return nil, err
	}

	opts := cfg.Opts
	opts.T = 6
	idx, _, err := core.BuildIndex(g, opts)
	if err != nil {
		return nil, err
	}
	q, err := core.NewQuerier(g, idx)
	if err != nil {
		return nil, err
	}

	var simHit, cocHit, total int
	for qi := 0; qi < queries; qi++ {
		item := src.Intn(n)
		sv, err := q.SingleSource(item, core.PullSS)
		if err != nil {
			return nil, err
		}
		simScores := sv.Dense(n)
		cocScores, err := cocitation.SingleSource(g, item, cocitation.Cosine)
		if err != nil {
			return nil, err
		}
		for _, cand := range exact.TopK(simScores, k, item) {
			total++
			if community(cand) == community(item) {
				simHit++
			}
		}
		for _, cand := range exact.TopK(cocScores, k, item) {
			if community(cand) == community(item) {
				cocHit++
			}
		}
	}
	t := NewTable(
		fmt.Sprintf("Effectiveness: SimRank vs co-citation (planted communities, top-%d)", k),
		"Measure", "Community precision")
	t.Add("CloudWalker SimRank", fmt.Sprintf("%.2f", float64(simHit)/float64(total)))
	t.Add("Co-citation (cosine)", fmt.Sprintf("%.2f", float64(cocHit)/float64(total)))
	return []*Table{t}, nil
}

// RunAblation regenerates the design-choice ablations (experiment id
// "ablation"):
//
//  1. solver — the paper's parallel Jacobi versus sequential Gauss–Seidel
//     on the same Monte Carlo system,
//  2. single-source estimator — the paper's pure-walk phase two versus
//     PullSS, the exact series over the same diagonal,
//  3. pull pruning — accuracy/latency tradeoff of the pull estimator's
//     frontier threshold.
func RunAblation(cfg Config) ([]*Table, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	p, err := gen.ProfileByName("wiki-vote")
	if err != nil {
		return nil, err
	}
	scale := cfg.Scale
	if float64(p.Nodes)*scale > 2000 {
		scale = 2000 / float64(p.Nodes)
	}
	p = p.Scaled(scale)
	g, err := p.Generate()
	if err != nil {
		return nil, err
	}
	opts := cfg.Opts
	wantDiag, err := exact.ExactDiagonal(g, opts.C, 3*opts.T)
	if err != nil {
		return nil, err
	}
	wantS, err := exact.Naive(g, opts.C, 3*opts.T)
	if err != nil {
		return nil, err
	}

	// (1) Solver ablation on the identical system.
	a, err := core.BuildSystem(g, opts)
	if err != nil {
		return nil, err
	}
	sys, err := linsys.NewSystem(a, linsys.Ones(g.NumNodes()))
	if err != nil {
		return nil, err
	}
	solver := NewTable(
		fmt.Sprintf("Ablation: solver for A x = 1 (L=%d sweeps, wiki-vote @ %d nodes)", opts.L, g.NumNodes()),
		"Solver", "Time", "Residual", "Diag MAE vs exact")
	start := time.Now()
	xj, repJ, err := sys.Jacobi(opts.L, cfg.Cluster.TotalCores(), nil)
	if err != nil {
		return nil, err
	}
	jTime := time.Since(start)
	core.ClampDiag(xj)
	dj, _ := exact.CompareVec(wantDiag, xj)
	solver.Add("Jacobi (parallel)", FmtDuration(jTime), FmtFloat(repJ.FinalResidual()), FmtFloat(dj.MeanAbs))
	start = time.Now()
	xg, repG, err := sys.GaussSeidel(opts.L, nil)
	if err != nil {
		return nil, err
	}
	gTime := time.Since(start)
	core.ClampDiag(xg)
	dg, _ := exact.CompareVec(wantDiag, xg)
	solver.Add("Gauss-Seidel (sequential)", FmtDuration(gTime), FmtFloat(repG.FinalResidual()), FmtFloat(dg.MeanAbs))

	// (2) Single-source estimator ablation.
	idx, _, err := core.BuildIndex(g, opts)
	if err != nil {
		return nil, err
	}
	estTab := NewTable("Ablation: MCSS phase-two estimator",
		"Estimator", "Mean latency", "SS MAE vs exact")
	for _, est := range []struct {
		name string
		mode core.SingleSourceMode
	}{{"walk (paper, O(T²R'))", core.WalkSS}, {"series (PullSS, exact)", core.PullSS}} {
		q, err := core.NewQuerier(g, idx)
		if err != nil {
			return nil, err
		}
		lat, mae, err := ssAccuracy(g, q, est.mode, wantS, cfg.Queries, opts.Seed)
		if err != nil {
			return nil, err
		}
		estTab.Add(est.name, FmtDuration(lat), FmtFloat(mae))
	}

	// (2b) Single-pair estimator ablation: CloudWalker's D-based MCSP
	// versus the index-free first-meeting estimator at the same walker
	// budget.
	spTab := NewTable("Ablation: single-pair estimator (same walker budget)",
		"Estimator", "Mean latency", "SP MAE vs exact", "Needs index")
	{
		q, err := core.NewQuerier(g, idx)
		if err != nil {
			return nil, err
		}
		pairs := queryNodes(g.NumNodes(), cfg.Queries, opts.Seed+85)
		var mcspLat, directLat time.Duration
		var mcspErr, directErr float64
		for _, pq := range pairs {
			start := time.Now()
			got, err := q.SinglePair(pq[0], pq[1])
			if err != nil {
				return nil, err
			}
			mcspLat += time.Since(start)
			mcspErr += absDiff(got, wantS.At(pq[0], pq[1]))

			start = time.Now()
			direct, err := core.DirectSinglePair(g, pq[0], pq[1], opts.C, opts.T, 2*opts.RPrime, opts.Seed)
			if err != nil {
				return nil, err
			}
			directLat += time.Since(start)
			directErr += absDiff(direct, wantS.At(pq[0], pq[1]))
		}
		nq := time.Duration(len(pairs))
		spTab.Add("MCSP (D-based, paper)", FmtDuration(mcspLat/nq),
			FmtFloat(mcspErr/float64(len(pairs))), "yes")
		spTab.Add("first-meeting MC (index-free)", FmtDuration(directLat/nq),
			FmtFloat(directErr/float64(len(pairs))), "no")
	}

	// (3) Prune-threshold sweep for the pull estimator, over (2)'s index:
	// BuildIndex never reads PruneEps, only PullSS does.
	pruneTab := NewTable("Ablation: pull-estimator prune threshold",
		"PruneEps", "Mean latency", "SS MAE vs exact")
	for _, eps := range []float64{0, 1e-5, 1e-4, 1e-3, 1e-2} {
		idxP := *idx
		idxP.Opts.PruneEps = eps
		q, err := core.NewQuerier(g, &idxP)
		if err != nil {
			return nil, err
		}
		lat, mae, err := ssAccuracy(g, q, core.PullSS, wantS, cfg.Queries, opts.Seed)
		if err != nil {
			return nil, err
		}
		pruneTab.Add(FmtFloat(eps), FmtDuration(lat), FmtFloat(mae))
	}
	return []*Table{solver, estTab, spTab, pruneTab}, nil
}

// ssAccuracy measures mean single-source latency and error versus exact.
func ssAccuracy(g *graph.Graph, q *core.Querier, mode core.SingleSourceMode,
	wantS *exact.Dense, queries int, seed uint64) (time.Duration, float64, error) {
	if queries <= 0 {
		queries = 3
	}
	pairs := queryNodes(g.NumNodes(), queries, seed+83)
	var totalLat time.Duration
	var maeSum float64
	for _, pq := range pairs {
		start := time.Now()
		v, err := q.SingleSource(pq[0], mode)
		if err != nil {
			return 0, 0, err
		}
		totalLat += time.Since(start)
		d, err := exact.CompareVec(wantS.Row(pq[0]), v.Dense(g.NumNodes()))
		if err != nil {
			return 0, 0, err
		}
		maeSum += d.MeanAbs
	}
	return totalLat / time.Duration(queries), maeSum / float64(queries), nil
}

// absDiff returns |a-b|.
func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// RunQueryScaling demonstrates the paper's complexity claim — MCSP is
// O(T·R') and MCSS is O(T²·R'·log d), both independent of graph size
// (experiment id "fig-queryscaling"): query latency stays flat while the
// graph grows 16×, and indexing time grows with it.
func RunQueryScaling(cfg Config) ([]*Table, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	t := NewTable("Query scaling: latency vs graph size (constant-time queries)",
		"Nodes", "Edges", "Index", "MCSP", "MCSS(walk)")
	base := 8000
	for _, mult := range []int{1, 4, 16} {
		n := base * mult
		m := 12 * n
		g, err := gen.RMAT(n, m, gen.DefaultRMAT, cfg.Opts.Seed+uint64(mult))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		idx, _, err := core.BuildIndex(g, cfg.Opts)
		if err != nil {
			return nil, err
		}
		indexTime := time.Since(start)
		q, err := core.NewQuerier(g, idx)
		if err != nil {
			return nil, err
		}
		pairs := queryNodes(n, cfg.Queries, cfg.Opts.Seed+84)
		start = time.Now()
		for _, pq := range pairs {
			if _, err := q.SinglePair(pq[0], pq[1]); err != nil {
				return nil, err
			}
		}
		sp := time.Since(start) / time.Duration(len(pairs))
		start = time.Now()
		for _, pq := range pairs {
			if _, err := q.SingleSource(pq[0], core.WalkSS); err != nil {
				return nil, err
			}
		}
		ss := time.Since(start) / time.Duration(len(pairs))
		t.Add(FmtCount(int64(g.NumNodes())), FmtCount(int64(g.NumEdges())),
			FmtDuration(indexTime), FmtDuration(sp), FmtDuration(ss))
	}
	return []*Table{t}, nil
}
