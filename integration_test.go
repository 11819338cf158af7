package cloudwalker_test

import (
	"os"
	"path/filepath"
	"testing"

	"cloudwalker"
	"cloudwalker/internal/gen"
)

// TestIntegrationArtifactPipeline drives the full durable-artifact
// workflow end to end through the filesystem: generate a profile graph,
// persist it, build and persist the Monte Carlo system, re-solve it into
// an index, persist the index, run the three query types, and persist the
// all-pair store — the lifecycle a production deployment runs.
func TestIntegrationArtifactPipeline(t *testing.T) {
	dir := t.TempDir()

	// 1. Dataset: a scaled paper profile.
	p, err := gen.ProfileByName("wiki-vote")
	if err != nil {
		t.Fatal(err)
	}
	p = p.Scaled(0.05) // ~355 nodes
	g, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	gpath := filepath.Join(dir, "graph.bin")
	gf, err := os.Create(gpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := cloudwalker.SaveBinaryGraph(gf, g); err != nil {
		t.Fatal(err)
	}
	if err := gf.Close(); err != nil {
		t.Fatal(err)
	}

	// 2. Reload and verify identity.
	gf2, err := os.Open(gpath)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := cloudwalker.LoadBinaryGraph(gf2)
	gf2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("graph roundtrip changed size")
	}

	// 3. Monte Carlo system, persisted and re-solved with more sweeps.
	opts := cloudwalker.DefaultOptions()
	opts.T, opts.R, opts.RPrime = 6, 400, 800
	system, err := cloudwalker.BuildSystem(g2, opts)
	if err != nil {
		t.Fatal(err)
	}
	spath := filepath.Join(dir, "system.cwsy")
	sf, err := os.Create(spath)
	if err != nil {
		t.Fatal(err)
	}
	if err := cloudwalker.SaveSystem(sf, system); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	sf2, err := os.Open(spath)
	if err != nil {
		t.Fatal(err)
	}
	system2, err := cloudwalker.LoadSystem(sf2)
	sf2.Close()
	if err != nil {
		t.Fatal(err)
	}
	resolved := opts
	resolved.L = 6
	idx, rep, err := cloudwalker.SolveIndex(g2, system2, resolved)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.JacobiResiduals) != 6 {
		t.Fatalf("re-solve ran %d sweeps", len(rep.JacobiResiduals))
	}
	// More sweeps must not be worse than the default L on the same system.
	defIdx, defRep, err := cloudwalker.SolveIndex(g2, system2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.JacobiResiduals[5] > defRep.JacobiResiduals[opts.L-1]+1e-12 {
		t.Fatalf("6-sweep residual %g worse than %d-sweep %g",
			rep.JacobiResiduals[5], opts.L, defRep.JacobiResiduals[opts.L-1])
	}
	_ = defIdx

	// 4. Queries through a persisted index.
	ipath := filepath.Join(dir, "index.cw")
	ifl, err := os.Create(ipath)
	if err != nil {
		t.Fatal(err)
	}
	if err := cloudwalker.SaveIndex(ifl, idx); err != nil {
		t.Fatal(err)
	}
	ifl.Close()
	ifl2, err := os.Open(ipath)
	if err != nil {
		t.Fatal(err)
	}
	idx2, err := cloudwalker.LoadIndex(ifl2)
	ifl2.Close()
	if err != nil {
		t.Fatal(err)
	}
	q, err := cloudwalker.NewQuerier(g2, idx2)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := q.SinglePair(1, 2); err != nil || s < 0 || s > 1 {
		t.Fatalf("single pair: %g, %v", s, err)
	}
	batch, err := q.SinglePairs([][2]int{{0, 1}, {2, 3}})
	if err != nil || len(batch) != 2 {
		t.Fatalf("batch: %v, %v", batch, err)
	}
	if _, err := q.SingleSource(0, cloudwalker.WalkSS); err != nil {
		t.Fatal(err)
	}

	// 5. All-pair store persisted and served.
	res, err := q.AllPairsTopK(3)
	if err != nil {
		t.Fatal(err)
	}
	store, err := cloudwalker.StoreFromResults(res, 3)
	if err != nil {
		t.Fatal(err)
	}
	stpath := filepath.Join(dir, "allpairs.cwss")
	stf, err := os.Create(stpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(stf); err != nil {
		t.Fatal(err)
	}
	stf.Close()
	stf2, err := os.Open(stpath)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := cloudwalker.LoadSimilarityStore(stf2)
	stf2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumNodes() != g2.NumNodes() {
		t.Fatalf("store nodes %d", loaded.NumNodes())
	}
}

// TestIntegrationEnginesConsistent cross-checks the three execution paths
// (local, broadcast, RDD) on the same graph: identical indexes where
// determinism is guaranteed (local vs broadcast), statistical agreement
// otherwise.
func TestIntegrationEnginesConsistent(t *testing.T) {
	g, err := cloudwalker.GenerateRMAT(60, 420, 13)
	if err != nil {
		t.Fatal(err)
	}
	opts := cloudwalker.DefaultOptions()
	opts.T, opts.L, opts.R, opts.RPrime = 6, 4, 800, 800
	opts.Seed = 21

	local, _, err := cloudwalker.BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	cfg := cloudwalker.DefaultClusterConfig()
	cfg.Machines, cfg.CoresPerMachine = 2, 2
	cl, err := cloudwalker.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	be, err := cloudwalker.NewBroadcastEngine(g, opts, cl)
	if err != nil {
		t.Fatal(err)
	}
	bIdx, err := be.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	for i := range local.Diag {
		if local.Diag[i] != bIdx.Diag[i] {
			t.Fatalf("broadcast diverged from local at %d", i)
		}
	}
	be.Close()

	cl2, err := cloudwalker.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	re, err := cloudwalker.NewRDDEngine(g, opts, cl2)
	if err != nil {
		t.Fatal(err)
	}
	rIdx, err := re.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// RDD walks differ stream-wise: require statistical agreement.
	worst := 0.0
	for i := range local.Diag {
		d := local.Diag[i] - rIdx.Diag[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	if worst > 0.1 {
		t.Fatalf("rdd diagonal diverges from local by %g", worst)
	}
}
