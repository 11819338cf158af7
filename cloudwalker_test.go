package cloudwalker

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testOpts() Options {
	o := DefaultOptions()
	o.T = 6
	o.L = 5
	o.R = 1000
	o.RPrime = 2000
	o.Seed = 3
	return o
}

func TestEndToEndPipeline(t *testing.T) {
	g, err := GenerateER(40, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	idx, rep, err := BuildIndex(g, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 40 {
		t.Fatalf("report rows %d", rep.Rows)
	}
	q, err := NewQuerier(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	s, err := q.SinglePair(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0 || s > 1 {
		t.Fatalf("similarity %g outside [0,1]", s)
	}
	// MC estimate should agree with exact ground truth.
	want, err := ExactSimRank(g, testOpts().C, 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-want.At(1, 2)) > 0.1 {
		t.Fatalf("s(1,2) = %g, exact %g", s, want.At(1, 2))
	}
	v, err := q.SingleSource(1, WalkSS)
	if err != nil {
		t.Fatal(err)
	}
	if v.Get(1) != 1 {
		t.Fatalf("self similarity %g", v.Get(1))
	}
}

func TestGraphRoundtripsThroughPublicAPI(t *testing.T) {
	g, err := NewGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := SaveEdgeList(&text, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeList(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 3 {
		t.Fatalf("edge list roundtrip edges %d", g2.NumEdges())
	}
	var bin bytes.Buffer
	if err := SaveBinaryGraph(&bin, g); err != nil {
		t.Fatal(err)
	}
	g3, err := LoadBinaryGraph(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumNodes() != 4 || g3.NumEdges() != 3 {
		t.Fatal("binary roundtrip changed graph")
	}
}

func TestIndexRoundtripsThroughPublicAPI(t *testing.T) {
	g, err := GenerateRMAT(30, 120, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.R = 50
	idx, _, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveIndex(&buf, idx); err != nil {
		t.Fatal(err)
	}
	idx2, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range idx.Diag {
		if idx.Diag[i] != idx2.Diag[i] {
			t.Fatal("index roundtrip changed diagonal")
		}
	}
	if _, err := NewQuerier(g, idx2); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedEnginesThroughPublicAPI(t *testing.T) {
	g, err := GenerateRMAT(30, 150, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.R, opts.RPrime = 200, 300
	cfg := DefaultClusterConfig()
	cfg.Machines, cfg.CoresPerMachine = 2, 2
	for _, mk := range []func(*Cluster) (Engine, error){
		func(cl *Cluster) (Engine, error) { return NewBroadcastEngine(g, opts, cl) },
		func(cl *Cluster) (Engine, error) { return NewRDDEngine(g, opts, cl) },
	} {
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e, err := mk(cl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.SinglePair(0, 1); err != nil {
			t.Fatal(err)
		}
		if len(cl.Stages()) == 0 {
			t.Fatalf("%s engine recorded no stages", e.Name())
		}
		e.Close()
	}
}

func TestTopKPublic(t *testing.T) {
	got := TopK([]float64{0.1, 0.5, 0.3}, 2, -1)
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("TopK = %v", got)
	}
}

func TestGenerators(t *testing.T) {
	if _, err := GenerateBA(50, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateCopying(50, 3, 0.4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateER(0, 1, 1); err == nil {
		t.Fatal("invalid generator args accepted")
	}
}

func TestFacadeCoverageGaps(t *testing.T) {
	// GraphBuilder through the facade.
	b := NewGraphBuilder(3)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil || g.NumEdges() != 1 {
		t.Fatalf("builder graph: %v %v", g, err)
	}

	// Edge list from a file.
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fg, err := LoadGraphFile(path)
	if err != nil || fg.NumEdges() != 2 {
		t.Fatalf("LoadGraphFile: %v %v", fg, err)
	}
	if _, err := LoadGraphFile(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("missing file accepted")
	}
	// Any other suffix is the binary format.
	bin := filepath.Join(t.TempDir(), "g.bin")
	bf, err := os.Create(bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveBinaryGraph(bf, fg); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	if bg, err := LoadGraphFile(bin); err != nil || bg.NumEdges() != 2 {
		t.Fatalf("LoadGraphFile(binary): %v %v", bg, err)
	}
	if _, err := LoadGraphFile(path + ".bin"); err == nil {
		t.Fatal("missing binary file accepted")
	}

	// Empty similarity store.
	st, err := StoreFromResults(make([][]Neighbor, 5), 2)
	if err != nil || st.NumNodes() != 5 {
		t.Fatalf("StoreFromResults: %v %v", st, err)
	}

	// Index-free estimator through the facade.
	s, err := DirectSinglePair(fg, 0, 1, 0.6, 4, 100, 1)
	if err != nil || s < 0 || s > 1 {
		t.Fatalf("DirectSinglePair: %g %v", s, err)
	}
}
