package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"cloudwalker"
)

func TestRefreshAfterRequiresDynamic(t *testing.T) {
	if err := run([]string{
		"-graph", "g.bin", "-index", "x.cw", "-refresh-after", "10",
	}, new(bytes.Buffer), nil); err == nil || !strings.Contains(err.Error(), "-dynamic") {
		t.Fatalf("err = %v, want -refresh-after/-dynamic complaint", err)
	}
}

func TestRunRequiresFlags(t *testing.T) {
	if err := run(nil, new(bytes.Buffer), nil); err == nil {
		t.Fatal("missing -graph/-index accepted")
	}
	if err := run([]string{"-graph", "nope.bin"}, new(bytes.Buffer), nil); err == nil {
		t.Fatal("missing -index accepted")
	}
	if err := run([]string{"-graph", "/does/not/exist.bin", "-index", "x.cw"},
		new(bytes.Buffer), nil); err == nil {
		t.Fatal("unreadable graph accepted")
	}
}

// TestRunRejectsRemovedFlags: the daemon defines no -store or -lin-rank
// flag, and no serving default: a request alone names its backend and
// its adaptive target, so -backend, -epsilon and -delta are gone.
func TestRunRejectsRemovedFlags(t *testing.T) {
	gpath, ipath := writeArtifacts(t)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-graph", gpath, "-index", ipath, "-store", "x"}, "flag provided but not defined: -store"},
		{[]string{"-graph", gpath, "-index", ipath, "-lin-rank", "4"}, "flag provided but not defined: -lin-rank"},
		{[]string{"-graph", gpath, "-index", ipath, "-backend", "lin"}, "flag provided but not defined: -backend"},
		{[]string{"-graph", gpath, "-index", ipath, "-epsilon", "0.1"}, "flag provided but not defined: -epsilon"},
		{[]string{"-graph", gpath, "-index", ipath, "-delta", "0.05"}, "flag provided but not defined: -delta"},
	} {
		err := run(c.args, new(bytes.Buffer), nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err %v, want %q", c.args, err, c.want)
		}
	}
}

func TestRouterFlagValidation(t *testing.T) {
	cases := map[string][]string{
		"router without shards":     {"-router"},
		"router with graph":         {"-router", "-shards", "h:1", "-graph", "g.bin"},
		"router with index":         {"-router", "-shards", "h:1", "-index", "x.cw"},
		"router with dynamic":       {"-router", "-shards", "h:1", "-dynamic"},
		"router with shard name":    {"-router", "-shards", "h:1", "-shard", "a"},
		"router with removed -mode": {"-router", "-shards", "h:1", "-mode", "partitioned"},
	}
	for name, args := range cases {
		if err := run(args, new(bytes.Buffer), nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// writeArtifacts builds a small graph + index on disk for daemon boots.
func writeArtifacts(t *testing.T) (gpath, ipath string) {
	t.Helper()
	dir := t.TempDir()
	g, err := cloudwalker.GenerateRMAT(150, 1200, 9)
	if err != nil {
		t.Fatal(err)
	}
	opts := cloudwalker.DefaultOptions()
	opts.T = 4
	opts.R = 20
	opts.RPrime = 150
	idx, _, err := cloudwalker.BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	gpath = filepath.Join(dir, "graph.bin")
	ipath = filepath.Join(dir, "index.cw")
	gf, err := os.Create(gpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := cloudwalker.SaveBinaryGraph(gf, g); err != nil {
		t.Fatal(err)
	}
	gf.Close()
	xf, err := os.Create(ipath)
	if err != nil {
		t.Fatal(err)
	}
	if err := cloudwalker.SaveIndex(xf, idx); err != nil {
		t.Fatal(err)
	}
	xf.Close()
	return gpath, ipath
}

// TestRouterEndToEnd boots a named shard and a router over it in-process,
// queries through the router, and drains both with one SIGTERM — the
// fleet wiring of the binary itself (process-level fleet coverage lives
// in internal/fleet/e2etest).
func TestRouterEndToEnd(t *testing.T) {
	gpath, ipath := writeArtifacts(t)

	var shardOut, routerOut bytes.Buffer
	shardReady, routerReady := make(chan string, 1), make(chan string, 1)
	shardDone, routerDone := make(chan error, 1), make(chan error, 1)
	go func() {
		shardDone <- run([]string{
			"-graph", gpath, "-index", ipath, "-addr", "127.0.0.1:0", "-shard", "a",
		}, &shardOut, shardReady)
	}()
	var shardAddr string
	select {
	case shardAddr = <-shardReady:
	case err := <-shardDone:
		t.Fatalf("shard exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("shard never became ready")
	}
	go func() {
		routerDone <- run([]string{
			"-router", "-shards", shardAddr, "-addr", "127.0.0.1:0",
		}, &routerOut, routerReady)
	}()
	var routerAddr string
	select {
	case routerAddr = <-routerReady:
	case err := <-routerDone:
		t.Fatalf("router exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("router never became ready")
	}

	resp, err := http.Get("http://" + routerAddr + "/pair?i=1&j=2")
	if err != nil {
		t.Fatal(err)
	}
	var pr struct {
		Score float64 `json:"score"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || pr.Score < 0 || pr.Score > 1 {
		t.Fatalf("routed pair: status %d, score %v", resp.StatusCode, pr.Score)
	}
	if got := resp.Header.Get("X-Cloudwalker-Shard"); got != "a" {
		t.Fatalf("routed response shard header %q, want \"a\"", got)
	}
	resp, err = http.Get("http://" + routerAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router healthz status %d", resp.StatusCode)
	}

	// One SIGTERM reaches both in-process daemons; both must drain.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for name, done := range map[string]chan error{"shard": shardDone, "router": routerDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s shutdown returned %v", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s never drained", name)
		}
	}
	if !strings.Contains(routerOut.String(), "fleet router (1 shards) serving") {
		t.Fatalf("missing router banner:\n%s", routerOut.String())
	}
	if !strings.Contains(shardOut.String(), `shard "a" serving`) {
		t.Fatalf("missing shard banner:\n%s", shardOut.String())
	}
}

// TestDaemonLinBackend boots the daemon with -lin (building the
// linearized engine at startup) and checks the backend surfaces: response
// header, the explicit and absent ?backend= answers, /healthz
// advertisement, and the per-backend metrics.
func TestDaemonLinBackend(t *testing.T) {
	gpath, ipath := writeArtifacts(t)

	var out bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-graph", gpath, "-index", ipath, "-addr", "127.0.0.1:0",
			"-lin", "-lin-sweeps", "6",
		}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr

	getBackend := func(path string) (string, float64) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		var pr struct {
			Score float64 `json:"score"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return resp.Header.Get("X-Cloudwalker-Backend"), pr.Score
	}

	// backend=lin is answered by the engine -lin built; a request naming
	// no backend is backend=mc's answer.
	if linBackend, _ := getBackend("/pair?i=3&j=4&backend=lin"); linBackend != "lin" {
		t.Fatalf("explicit backend=lin answered by %q", linBackend)
	}
	mcBackend, mcScore := getBackend("/pair?i=3&j=4&backend=mc")
	if mcBackend != "mc" {
		t.Fatalf("backend=mc answered by %q", mcBackend)
	}
	if defBackend, defScore := getBackend("/pair?i=3&j=4"); defBackend != "mc" || defScore != mcScore {
		t.Fatalf("backend-less request answered by %q with %v, want mc's %v", defBackend, defScore, mcScore)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Backends []string `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(hz.Backends) != 2 {
		t.Fatalf("healthz backends %v, want [mc lin]", hz.Backends)
	}

	// The Prometheus page of the live process must be scrapeable and
	// carry the counters the queries above incremented, including the
	// per-backend split.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, err %v", resp.StatusCode, err)
	}
	lines := strings.Split(string(page), "\n")
	for _, series := range []string{
		`cloudwalker_requests_total{endpoint="/pair"}`,
		`cloudwalker_backend_queries_total{backend="lin"}`,
	} {
		var val float64
		for _, line := range lines {
			if rest, ok := strings.CutPrefix(line, series+" "); ok {
				val, _ = strconv.ParseFloat(rest, 64)
			}
		}
		if val <= 0 {
			t.Errorf("/metrics: %s = %v, want present and non-zero\n%s", series, val, page)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never drained")
	}
	if !strings.Contains(out.String(), "linearized engine ready") {
		t.Fatalf("missing lin build log:\n%s", out.String())
	}
}

// TestDaemonEndToEnd builds artifacts with the library (standing in for
// the cloudwalker CLI), boots the daemon on an ephemeral port, queries
// it, and shuts it down with SIGTERM — the full operational loop.
func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	g, err := cloudwalker.GenerateRMAT(200, 1600, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := cloudwalker.DefaultOptions()
	opts.T = 4
	opts.R = 30
	opts.RPrime = 200
	idx, _, err := cloudwalker.BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	gpath := filepath.Join(dir, "graph.bin")
	ipath := filepath.Join(dir, "index.cw")
	gf, err := os.Create(gpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := cloudwalker.SaveBinaryGraph(gf, g); err != nil {
		t.Fatal(err)
	}
	gf.Close()
	xf, err := os.Create(ipath)
	if err != nil {
		t.Fatal(err)
	}
	if err := cloudwalker.SaveIndex(xf, idx); err != nil {
		t.Fatal(err)
	}
	xf.Close()

	var out bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-graph", gpath, "-index", ipath, "-addr", "127.0.0.1:0",
		}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Get("http://" + addr + "/pair?i=1&j=2")
	if err != nil {
		t.Fatal(err)
	}
	var pr struct {
		Score  float64 `json:"score"`
		Cached bool    `json:"cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || pr.Score < 0 || pr.Score > 1 {
		t.Fatalf("status %d, score %v", resp.StatusCode, pr.Score)
	}

	resp, err = http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// Graceful shutdown: SIGTERM must drain and return nil.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never drained")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Fatalf("missing drain log:\n%s", out.String())
	}
}

// TestDaemonDynamicEndToEnd boots the daemon in -dynamic mode, streams
// edge updates at it, forces a compaction/hot-swap, and checks queries
// flip to the new snapshot without the daemon missing a beat.
func TestDaemonDynamicEndToEnd(t *testing.T) {
	dir := t.TempDir()
	g, err := cloudwalker.GenerateRMAT(150, 1200, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := cloudwalker.DefaultOptions()
	opts.T = 4
	opts.R = 20
	opts.RPrime = 150
	idx, _, err := cloudwalker.BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	gpath := filepath.Join(dir, "graph.bin")
	ipath := filepath.Join(dir, "index.cw")
	gf, err := os.Create(gpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := cloudwalker.SaveBinaryGraph(gf, g); err != nil {
		t.Fatal(err)
	}
	gf.Close()
	xf, err := os.Create(ipath)
	if err != nil {
		t.Fatal(err)
	}
	if err := cloudwalker.SaveIndex(xf, idx); err != nil {
		t.Fatal(err)
	}
	xf.Close()

	var out bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-graph", gpath, "-index", ipath, "-addr", "127.0.0.1:0", "-dynamic",
		}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr

	// Apply updates: two fresh nodes, both cited by 1 and 2 (shared
	// in-neighbors drive SimRank, which walks backward).
	resp, err := http.Post(base+"/edges", "application/json",
		strings.NewReader(`{"insert":[[1,150],[2,150],[1,151],[2,151]]}`))
	if err != nil {
		t.Fatal(err)
	}
	var er struct {
		Inserted int    `json:"inserted"`
		Pending  int    `json:"pending"`
		Gen      uint64 `json:"gen"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || er.Inserted != 4 || er.Pending != 4 {
		t.Fatalf("edges: status %d, %+v", resp.StatusCode, er)
	}

	// Synchronous refresh: compaction + index rebuild + hot-swap.
	resp, err = http.Post(base+"/refresh?wait=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr struct {
		Swapped bool   `json:"swapped"`
		Gen     uint64 `json:"gen"`
		Nodes   int    `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !rr.Swapped || rr.Gen != er.Gen || rr.Nodes != 152 {
		t.Fatalf("refresh: status %d, %+v (want swap to gen %d, 152 nodes)", resp.StatusCode, rr, er.Gen)
	}

	// The new nodes are queryable, served from the swapped snapshot.
	resp, err = http.Get(base + "/pair?i=150&j=151")
	if err != nil {
		t.Fatal(err)
	}
	var pr struct {
		Score float64 `json:"score"`
		Gen   uint64  `json:"gen"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || pr.Gen != er.Gen {
		t.Fatalf("pair: status %d, %+v", resp.StatusCode, pr)
	}
	if pr.Score <= 0 {
		t.Fatalf("pair score %v, want > 0 (150 and 151 share both in-neighbor sets)", pr.Score)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never drained")
	}
	if !strings.Contains(out.String(), "dynamic updates enabled") {
		t.Fatalf("missing dynamic log:\n%s", out.String())
	}
}

// TestDaemonLinRebuildKeepsRestoredOptions: a daemon restored from a
// snapshot whose lin engine was solved exactly (-lin-prune 0) re-solves
// that engine after a hot-swap at the options it was serving with, not
// at the defaults of the restarted daemon's flags, which name none.
func TestDaemonLinRebuildKeepsRestoredOptions(t *testing.T) {
	gpath, ipath := writeArtifacts(t)
	snapDir := t.TempDir()
	start := func(args ...string) (string, chan error) {
		t.Helper()
		ready, done := make(chan string, 1), make(chan error, 1)
		go func() { done <- run(append(args, "-addr", "127.0.0.1:0"), io.Discard, ready) }()
		select {
		case addr := <-ready:
			return "http://" + addr, done
		case err := <-done:
			t.Fatalf("daemon exited before ready: %v", err)
		case <-time.After(60 * time.Second):
			t.Fatal("daemon never became ready")
		}
		return "", nil
	}
	stop := func(done chan error) {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("shutdown returned %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon never drained")
		}
	}
	post := func(url, body string) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", url, resp.StatusCode)
		}
	}

	base, done := start("-graph", gpath, "-index", ipath, "-snapshot", snapDir, "-lin", "-lin-prune", "0")
	post(base+"/snapshot", "")
	stop(done)

	base, done = start("-snapshot", snapDir, "-dynamic")
	post(base+"/edges", `{"insert":[[1,150],[2,150],[1,151],[2,151]]}`)
	post(base+"/refresh?wait=1", "")
	// The lin engine is re-solved in the background; lin requests answer
	// 503 until it lands.
	var pr struct {
		Score float64 `json:"score"`
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(base + "/pair?i=3&j=18&backend=lin")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&pr)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			break
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || time.Now().After(deadline) {
			t.Fatalf("lin pair after refresh: status %d", resp.StatusCode)
		}
	}
	stop(done)

	g, err := cloudwalker.LoadGraphFile(gpath)
	if err != nil {
		t.Fatal(err)
	}
	dyn := cloudwalker.NewDynamicGraph(g)
	for _, e := range [][2]int{{1, 150}, {2, 150}, {1, 151}, {2, 151}} {
		if _, err := dyn.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	compacted, _ := dyn.Compact()
	f, err := os.Open(ipath)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := cloudwalker.LoadIndex(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	exact := cloudwalker.DefaultLinOptions()
	exact.C, exact.T = idx.Opts.C, idx.Opts.T
	lin, err := cloudwalker.BuildLinEngine(compacted, exact)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lin.SinglePair(3, 18)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Score != want {
		t.Fatalf("rebuilt lin engine answers s(3,18) = %v, want the exact engine's %v", pr.Score, want)
	}
}
