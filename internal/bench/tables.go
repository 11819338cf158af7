package bench

import (
	"errors"
	"fmt"
	"time"

	"cloudwalker/internal/baseline/fingerprint"
	"cloudwalker/internal/cluster"
	"cloudwalker/internal/core"
	"cloudwalker/internal/dist"
	"cloudwalker/internal/linserve"
)

// RunDatasets regenerates the paper's dataset table: paper sizes next to
// the synthetic stand-in actually generated (experiment id "datasets").
func RunDatasets(cfg Config) ([]*Table, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	ds, err := cfg.Datasets()
	if err != nil {
		return nil, err
	}
	t := NewTable(
		fmt.Sprintf("Datasets (paper table; synthetic at scale %g)", cfg.Scale),
		"Dataset", "Paper |V|", "Paper |E|", "Synth |V|", "Synth |E|", "AvgDeg", "MaxInDeg", "Gen")
	for _, d := range ds {
		st := d.Graph.ComputeStats()
		t.Add(d.Profile.Name,
			FmtCount(d.Profile.PaperNodes), FmtCount(d.Profile.PaperEdges),
			FmtCount(int64(st.Nodes)), FmtCount(int64(st.Edges)),
			fmt.Sprintf("%.1f", st.AvgDegree), FmtCount(int64(st.MaxInDegree)),
			FmtDuration(d.GenTime))
	}
	return []*Table{t}, nil
}

// RunParams renders the paper's parameter table (experiment id "params").
func RunParams(cfg Config) ([]*Table, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	o := cfg.Opts
	t := NewTable("Parameters (paper defaults)", "Parameter", "Value", "Meaning")
	t.Add("c", FmtFloat(o.C), "decay factor of SimRank")
	t.Add("T", fmt.Sprintf("%d", o.T), "# of walk steps")
	t.Add("L", fmt.Sprintf("%d", o.L), "# of iterations in Jacobi method")
	t.Add("R", fmt.Sprintf("%d", o.R), "# of walkers in simulating a_i")
	t.Add("R'", fmt.Sprintf("%d", o.RPrime), "# of walkers in MCSP and MCSS")
	return []*Table{t}, nil
}

// engineResult is one row of a model table.
type engineResult struct {
	name            string
	dWall, dSim     time.Duration
	spWall, ssWall  time.Duration
	shuffleBytes    int64
	broadcastBytes  int64
	oom             bool
	oomDetail       string
	queriesAveraged int
}

// runEngine measures one dataset on one execution model.
func runEngine(cfg Config, d Dataset, model string) (engineResult, error) {
	res := engineResult{name: d.Profile.Name}
	cl, err := cluster.New(cfg.Cluster)
	if err != nil {
		return res, err
	}
	var eng dist.Engine
	switch model {
	case "broadcast":
		eng, err = dist.NewBroadcast(d.Graph, cfg.Opts, cl)
	case "rdd":
		eng, err = dist.NewRDD(d.Graph, cfg.Opts, cl)
	default:
		return res, fmt.Errorf("bench: unknown model %q", model)
	}
	if err != nil {
		// Out-of-memory is a result, not a failure: it is the paper's
		// missing broadcast row for clue-web.
		res.oom = true
		res.oomDetail = err.Error()
		return res, nil
	}
	defer eng.Close()

	start := time.Now()
	if _, err := eng.BuildIndex(); err != nil {
		return res, err
	}
	res.dWall = time.Since(start)
	tot := cl.Totals()
	res.dSim = tot.SimWall

	pairs := queryNodes(d.Graph.NumNodes(), cfg.Queries, cfg.Opts.Seed+77)
	start = time.Now()
	for _, pq := range pairs {
		if _, err := eng.SinglePair(pq[0], pq[1]); err != nil {
			return res, err
		}
	}
	res.spWall = time.Since(start) / time.Duration(len(pairs))
	start = time.Now()
	for _, pq := range pairs {
		if _, err := eng.SingleSource(pq[0]); err != nil {
			return res, err
		}
	}
	res.ssWall = time.Since(start) / time.Duration(len(pairs))
	res.queriesAveraged = len(pairs)

	tot = cl.Totals()
	res.shuffleBytes = tot.ShuffleBytes
	res.broadcastBytes = tot.BroadcastBytes
	return res, nil
}

// RunModelTable regenerates the per-model timing tables (experiment ids
// "table-broadcast" and "table-rdd"): offline D time plus mean MCSP and
// MCSS latency per dataset.
func RunModelTable(cfg Config, model string) ([]*Table, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	ds, err := cfg.Datasets()
	if err != nil {
		return nil, err
	}
	t := NewTable(
		fmt.Sprintf("%s model (scale %g): preprocessing and query times", model, cfg.Scale),
		"Dataset", "D", "MCSP", "MCSS", "D(sim)", "Shuffle", "Bcast")
	for _, d := range ds {
		cfg.logf("[%s] %s...", model, d.Profile.Name)
		r, err := runEngine(cfg, d, model)
		if err != nil {
			return nil, fmt.Errorf("bench: %s on %s: %w", model, d.Profile.Name, err)
		}
		if r.oom {
			// The paper's broadcasting table simply omits clue-web: the
			// 401 GB graph exceeds each machine's 377 GB. Render OOM.
			t.Add(d.Profile.Name, "OOM", "OOM", "OOM", "-", "-", "-")
			continue
		}
		t.Add(d.Profile.Name,
			FmtDuration(r.dWall), FmtDuration(r.spWall), FmtDuration(r.ssWall),
			FmtDuration(r.dSim), FmtCount(r.shuffleBytes), FmtCount(r.broadcastBytes))
	}
	return []*Table{t}, nil
}

// RunCompareTable regenerates the state-of-the-art comparison (experiment
// id "table-compare"): FMT and LIN versus CloudWalker on every dataset,
// with FMT's out-of-memory N/A cells and LIN's "-" beyond its tractable
// size, like the paper's table.
func RunCompareTable(cfg Config) ([]*Table, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	ds, err := cfg.Datasets()
	if err != nil {
		return nil, err
	}
	t := NewTable(
		fmt.Sprintf("Comparison with FMT and LIN (scale %g)", cfg.Scale),
		"Dataset",
		"FMT Prep", "FMT SP", "FMT SS",
		"LIN Prep", "LIN SP", "LIN SS",
		"CW Prep", "CW SP", "CW SS")
	for _, d := range ds {
		row := []string{d.Profile.Name}
		row = append(row, compareFMT(cfg, d)...)
		row = append(row, compareLIN(cfg, d)...)
		cw, err := compareCW(cfg, d)
		if err != nil {
			return nil, err
		}
		row = append(row, cw...)
		t.Add(row...)
	}
	return []*Table{t}, nil
}

func compareFMT(cfg Config, d Dataset) []string {
	cfg.logf("[compare/FMT] %s...", d.Profile.Name)
	opts := fingerprint.Options{
		C:            cfg.Opts.C,
		T:            cfg.Opts.T,
		Samples:      cfg.FMTSamples,
		MemoryBudget: cfg.FMTBudget,
		Seed:         cfg.Opts.Seed,
	}
	start := time.Now()
	ix, err := fingerprint.Build(d.Graph, opts)
	if errors.Is(err, fingerprint.ErrMemoryBudget) {
		return []string{"N/A", "N/A", "N/A"} // the paper's OOM cells
	}
	if err != nil {
		return []string{"err", "err", "err"}
	}
	prep := time.Since(start)
	pairs := queryNodes(d.Graph.NumNodes(), cfg.Queries, cfg.Opts.Seed+78)
	start = time.Now()
	for _, pq := range pairs {
		if _, err := ix.SinglePair(pq[0], pq[1]); err != nil {
			return []string{FmtDuration(prep), "err", "err"}
		}
	}
	sp := time.Since(start) / time.Duration(len(pairs))
	start = time.Now()
	for _, pq := range pairs {
		if _, err := ix.SingleSource(pq[0]); err != nil {
			return []string{FmtDuration(prep), FmtDuration(sp), "err"}
		}
	}
	ss := time.Since(start) / time.Duration(len(pairs))
	return []string{FmtDuration(prep), FmtDuration(sp), FmtDuration(ss)}
}

func compareLIN(cfg Config, d Dataset) []string {
	if d.Graph.NumEdges() > cfg.LINMaxEdges {
		return []string{"-", "-", "-"} // the paper's not-run cells
	}
	cfg.logf("[compare/LIN] %s...", d.Profile.Name)
	opts := linserve.Options{
		C:             cfg.Opts.C,
		T:             cfg.Opts.T,
		Sweeps:        cfg.Opts.L + 2,
		BuildPruneEps: cfg.LINPrune,
		Workers:       cfg.Cluster.TotalCores(),
	}
	start := time.Now()
	ix, err := linserve.Build(d.Graph, opts)
	if err != nil {
		return []string{"err", "err", "err"}
	}
	prep := time.Since(start)
	pairs := queryNodes(d.Graph.NumNodes(), cfg.Queries, cfg.Opts.Seed+79)
	start = time.Now()
	for _, pq := range pairs {
		if _, err := ix.SinglePair(pq[0], pq[1]); err != nil {
			return []string{FmtDuration(prep), "err", "err"}
		}
	}
	sp := time.Since(start) / time.Duration(len(pairs))
	start = time.Now()
	for _, pq := range pairs {
		if _, err := ix.SingleSource(pq[0]); err != nil {
			return []string{FmtDuration(prep), FmtDuration(sp), "err"}
		}
	}
	ss := time.Since(start) / time.Duration(len(pairs))
	return []string{FmtDuration(prep), FmtDuration(sp), FmtDuration(ss)}
}

func compareCW(cfg Config, d Dataset) ([]string, error) {
	cfg.logf("[compare/CW] %s...", d.Profile.Name)
	start := time.Now()
	idx, _, err := core.BuildIndex(d.Graph, cfg.Opts)
	if err != nil {
		return nil, err
	}
	prep := time.Since(start)
	q, err := core.NewQuerier(d.Graph, idx)
	if err != nil {
		return nil, err
	}
	pairs := queryNodes(d.Graph.NumNodes(), cfg.Queries, cfg.Opts.Seed+80)
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
	return []string{FmtDuration(prep), FmtDuration(sp), FmtDuration(ss)}, nil
}
