package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cloudwalker"
)

// tmp returns a path inside a per-test temp dir.
func tmp(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

// genGraph writes a small binary graph and returns its path.
func genGraph(t *testing.T) string {
	t.Helper()
	path := tmp(t, "g.bin")
	var out bytes.Buffer
	err := cmdGen([]string{"-out", path, "-kind", "rmat", "-n", "300", "-m", "2400", "-seed", "7"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote") {
		t.Fatalf("gen output %q", out.String())
	}
	return path
}

func TestCmdGenAllKinds(t *testing.T) {
	for _, kind := range []string{"rmat", "er", "ba", "copying"} {
		path := tmp(t, kind+".bin")
		var out bytes.Buffer
		err := cmdGen([]string{"-out", path, "-kind", kind, "-n", "50", "-m", "300", "-k", "3"}, &out)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s: no output file", kind)
		}
	}
}

func TestCmdGenProfile(t *testing.T) {
	path := tmp(t, "p.bin")
	var out bytes.Buffer
	err := cmdGen([]string{"-out", path, "-kind", "profile", "-profile", "wiki-vote", "-scale", "0.01"}, &out)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCmdGenTextFormat(t *testing.T) {
	path := tmp(t, "g.txt")
	var out bytes.Buffer
	if err := cmdGen([]string{"-out", path, "-kind", "er", "-n", "20", "-m", "40"}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "#") {
		t.Fatalf("text graph missing header: %q", string(data[:20]))
	}
	// And it loads back through stats.
	var stats bytes.Buffer
	if err := cmdStats([]string{"-graph", path}, &stats); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats.String(), "nodes:") {
		t.Fatalf("stats output %q", stats.String())
	}
}

func TestCmdGenErrors(t *testing.T) {
	var out bytes.Buffer
	if err := cmdGen([]string{"-kind", "nope", "-out", tmp(t, "x.bin")}, &out); err == nil {
		t.Error("unknown generator accepted")
	}
	if err := cmdGen([]string{"-kind", "profile", "-profile", "nope", "-out", tmp(t, "x.bin")}, &out); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestCmdStats(t *testing.T) {
	path := genGraph(t)
	var out bytes.Buffer
	if err := cmdStats([]string{"-graph", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"nodes:", "edges:", "avg degree:", "memory:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats missing %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := cmdStats([]string{"-graph", path, "-components"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "weak components:") ||
		!strings.Contains(out.String(), "strong components:") {
		t.Errorf("component stats missing:\n%s", out.String())
	}
	if err := cmdStats([]string{}, &out); err == nil {
		t.Error("missing -graph accepted")
	}
	if err := cmdStats([]string{"-graph", tmp(t, "missing.bin")}, &out); err == nil {
		t.Error("missing file accepted")
	}
}

func TestIndexAndQueryPipeline(t *testing.T) {
	gpath := genGraph(t)
	ipath := tmp(t, "idx.cw")
	var out bytes.Buffer
	err := cmdIndex([]string{"-graph", gpath, "-out", ipath, "-R", "50", "-Rq", "200", "-T", "5"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "jacobi sweep") {
		t.Fatalf("index output %q", out.String())
	}

	out.Reset()
	err = cmdQuery([]string{"-graph", gpath, "-index", ipath, "-mode", "sp", "-i", "3", "-j", "7"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "s(3,7) =") {
		t.Fatalf("sp output %q", out.String())
	}

	out.Reset()
	err = cmdQuery([]string{"-graph", gpath, "-index", ipath, "-mode", "ss", "-i", "3", "-k", "4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "top-4 similar to node 3") {
		t.Fatalf("ss output %q", out.String())
	}

	out.Reset()
	err = cmdQuery([]string{"-graph", gpath, "-index", ipath, "-mode", "ap", "-k", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "all-pair top-2") {
		t.Fatalf("ap output %q", out.String())
	}
}

func TestCmdQueryAPSaveStore(t *testing.T) {
	gpath := genGraph(t)
	ipath := tmp(t, "idx.cw")
	spath := tmp(t, "ap.cws")
	var out bytes.Buffer
	if err := cmdIndex([]string{"-graph", gpath, "-out", ipath, "-R", "20", "-Rq", "100", "-T", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err := cmdQuery([]string{"-graph", gpath, "-index", ipath, "-mode", "ap", "-k", "3", "-save", spath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "saved all-pair store") {
		t.Fatalf("ap output %q", out.String())
	}
	f, err := os.Open(spath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	store, err := cloudwalker.LoadSimilarityStore(f)
	if err != nil {
		t.Fatal(err)
	}
	if store.NumNodes() != 300 || store.K() != 3 {
		t.Fatalf("store %d/%d", store.NumNodes(), store.K())
	}
}

// TestCmdQuerySourceIsServed: query -mode ss prints, rank for rank, the
// list an in-process server returns for /source?node=q&k=k.
func TestCmdQuerySourceIsServed(t *testing.T) {
	gpath := genGraph(t)
	ipath := tmp(t, "idx.cw")
	var out bytes.Buffer
	if err := cmdIndex([]string{"-graph", gpath, "-out", ipath, "-R", "50", "-Rq", "200", "-T", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	g, err := cloudwalker.LoadGraphFile(gpath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(ipath)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := cloudwalker.LoadIndex(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	q, err := cloudwalker.NewQuerier(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cloudwalker.NewServer(q, cloudwalker.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const k = 6
	for _, node := range []int{3, 17, 42} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/source?node=%d&k=%d", node, k), nil))
		var body struct {
			Results []struct {
				Node  int32   `json:"node"`
				Score float64 `json:"score"`
			} `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != 200 {
			t.Fatalf("/source?node=%d: %d %s (%v)", node, rec.Code, rec.Body, err)
		}
		var want []string
		for rank, nb := range body.Results {
			want = append(want, fmt.Sprintf("  %2d. node %-8d s = %.6f", rank+1, nb.Node, nb.Score))
		}
		out.Reset()
		if err := cmdQuery([]string{"-graph", gpath, "-index", ipath, "-mode", "ss", "-i", fmt.Sprint(node), "-k", fmt.Sprint(k)}, &out); err != nil {
			t.Fatal(err)
		}
		got := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")[1:]
		if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("node %d: query -mode ss printed\n%s\n/source serves\n%s", node, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

func TestCmdQueryErrors(t *testing.T) {
	gpath := genGraph(t)
	ipath := tmp(t, "idx.cw")
	var out bytes.Buffer
	if err := cmdIndex([]string{"-graph", gpath, "-out", ipath, "-R", "10", "-T", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-graph", gpath, "-index", ipath, "-mode", "bogus"}, &out); err == nil {
		t.Error("bogus mode accepted")
	}
	// Single-source answers have one estimator, so there is no flag to
	// choose one.
	err := cmdQuery([]string{"-graph", gpath, "-index", ipath, "-mode", "ss", "-estimator", "walk"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-estimator") {
		t.Errorf("-estimator walk: error %v, want the flag refused", err)
	}
	if err := cmdQuery([]string{"-mode", "sp"}, &out); err == nil {
		t.Error("missing paths accepted")
	}
	if err := cmdQuery([]string{"-graph", gpath, "-index", tmp(t, "no.cw"), "-mode", "sp"}, &out); err == nil {
		t.Error("missing index accepted")
	}
}

func TestCmdExact(t *testing.T) {
	gpath := genGraph(t)
	var out bytes.Buffer
	if err := cmdExact([]string{"-graph", gpath, "-i", "2", "-j", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "exact s(2,5)") {
		t.Fatalf("exact output %q", out.String())
	}
	out.Reset()
	if err := cmdExact([]string{"-graph", gpath, "-i", "2", "-k", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "exact top-3") {
		t.Fatalf("exact top-k output %q", out.String())
	}
	if err := cmdExact([]string{}, &out); err == nil {
		t.Error("missing -graph accepted")
	}
	for _, bad := range [][]string{{"-k", "-1"}, {"-i", "300"}, {"-i", "-1"}, {"-j", "300"}} {
		if err := cmdExact(append([]string{"-graph", gpath}, bad...), &out); err == nil {
			t.Errorf("exact %v accepted", bad)
		}
	}
}

// TestCmdExactTiesByNode: on a star 0 -> 1..60 whose even leaves have a
// second in-link from 61, leaf 7 scores c with every odd leaf and c/2
// with every even one. The top list is two long ties, each printed in
// ascending node order.
func TestCmdExactTiesByNode(t *testing.T) {
	path := tmp(t, "star.txt")
	var edges strings.Builder
	for leaf := 1; leaf <= 60; leaf++ {
		fmt.Fprintf(&edges, "0 %d\n", leaf)
		if leaf%2 == 0 {
			fmt.Fprintf(&edges, "61 %d\n", leaf)
		}
	}
	if err := os.WriteFile(path, []byte(edges.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := cmdExact([]string{"-graph", path, "-i", "7", "-k", "40"}, &out); err != nil {
		t.Fatal(err)
	}
	var got, want []int
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		var rank, node int
		var score float64
		if _, err := fmt.Sscanf(line, " %d. node %d s = %f", &rank, &node, &score); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		got = append(got, node)
	}
	for leaf := 1; leaf <= 59; leaf += 2 {
		if leaf != 7 {
			want = append(want, leaf)
		}
	}
	for leaf := 2; len(want) < 40; leaf += 2 {
		want = append(want, leaf)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("printed nodes %v, want %v", got, want)
	}
}

func TestCmdResolveReusesSystem(t *testing.T) {
	gpath := genGraph(t)
	ipath := tmp(t, "idx.cw")
	spath := tmp(t, "sys.cws")
	var out bytes.Buffer
	err := cmdIndex([]string{"-graph", gpath, "-out", ipath, "-dump-system", spath,
		"-R", "50", "-T", "5", "-L", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "saved system") {
		t.Fatalf("index output %q", out.String())
	}
	// Re-solve with more sweeps; no walking.
	out.Reset()
	ipath2 := tmp(t, "idx2.cw")
	err = cmdResolve([]string{"-graph", gpath, "-system", spath, "-out", ipath2, "-L", "6"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "jacobi sweep 6") {
		t.Fatalf("resolve output %q", out.String())
	}
	// The re-solved index answers queries.
	out.Reset()
	if err := cmdQuery([]string{"-graph", gpath, "-index", ipath2, "-mode", "sp", "-i", "1", "-j", "2"}, &out); err != nil {
		t.Fatal(err)
	}
}

func TestCmdResolveErrors(t *testing.T) {
	var out bytes.Buffer
	if err := cmdResolve([]string{}, &out); err == nil {
		t.Error("missing flags accepted")
	}
	gpath := genGraph(t)
	if err := cmdResolve([]string{"-graph", gpath, "-system", tmp(t, "no.cws")}, &out); err == nil {
		t.Error("missing system file accepted")
	}
}

func TestCmdIndexErrors(t *testing.T) {
	var out bytes.Buffer
	if err := cmdIndex([]string{}, &out); err == nil {
		t.Error("missing -graph accepted")
	}
	if err := cmdIndex([]string{"-graph", tmp(t, "no.bin")}, &out); err == nil {
		t.Error("missing graph file accepted")
	}
}
