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
	"cloudwalker/internal/oracle"
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
	_, gpath, ipath := newFixture(t)
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
		"router without shards":                  {"-router"},
		"router with graph":                      {"-router", "-shards", "h:1", "-graph", "g.bin"},
		"router with index":                      {"-router", "-shards", "h:1", "-index", "x.cw"},
		"router with dynamic":                    {"-router", "-shards", "h:1", "-dynamic"},
		"router with shard name":                 {"-router", "-shards", "h:1", "-shard", "a"},
		"router with removed -mode":              {"-router", "-shards", "h:1", "-mode", "partitioned"},
		"router with removed -breaker-threshold": {"-router", "-shards", "h:1", "-breaker-threshold", "5"},
		"router with removed -hedge auto":        {"-router", "-shards", "h:1", "-hedge", "auto"},
	}
	for name, args := range cases {
		if err := run(args, new(bytes.Buffer), nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// newFixture builds a small graph and index, writes them to disk
// for daemon boots, and returns the querier they hold.
func newFixture(t *testing.T) (q *cloudwalker.Querier, gpath, ipath string) {
	t.Helper()
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
	if q, err = cloudwalker.NewQuerier(g, idx); err != nil {
		t.Fatal(err)
	}
	if gpath, ipath, err = oracle.WriteArtifacts(t.TempDir(), q); err != nil {
		t.Fatal(err)
	}
	return q, gpath, ipath
}

// TestRouterEndToEnd boots a named shard and a router over it in-process,
// checks the routed answers with the oracle, and drains both with one
// SIGTERM — the fleet wiring of the binary itself (process-level fleet
// coverage lives in internal/fleet/e2etest).
func TestRouterEndToEnd(t *testing.T) {
	q, gpath, ipath := newFixture(t)
	shard, shardDone, shardOut := startRun(t, "-graph", gpath, "-index", ipath, "-shard", "a")
	router, routerDone, routerOut := startRun(t, "-router", "-shards", strings.TrimPrefix(shard, "http://"))
	oracle.Check(t, http.DefaultClient, router, oracle.Ref{Q: q}, oracle.Sample(q, 1, 4))
	hdr := oracle.Get(t, http.DefaultClient, router+"/pair?i=1&j=2", http.StatusOK, nil)
	if got := hdr.Get("X-Cloudwalker-Shard"); got != "a" {
		t.Fatalf("routed response shard header %q, want \"a\"", got)
	}
	oracle.Get(t, http.DefaultClient, router+"/healthz", http.StatusOK, nil)

	stopRun(t, shardDone, routerDone)
	if !strings.Contains(routerOut.String(), "fleet router (1 shards) serving") {
		t.Fatalf("missing router banner:\n%s", routerOut)
	}
	if !strings.Contains(shardOut.String(), `shard "a" serving`) {
		t.Fatalf("missing shard banner:\n%s", shardOut)
	}
}

// TestDaemonLinBackend boots the daemon with -lin at its serving prune
// defaults (building the linearized engine at startup) and checks the
// answers of both backends with the oracle, the /healthz advertisement,
// and the per-backend metrics.
func TestDaemonLinBackend(t *testing.T) {
	q, gpath, ipath := newFixture(t)
	base, done, out := startRun(t, "-graph", gpath, "-index", ipath, "-lin", "-lin-sweeps", "6")
	lopts := cloudwalker.DefaultLinOptions()
	lopts.C, lopts.T, lopts.Sweeps = q.Index().Opts.C, q.Index().Opts.T, 6
	lopts.BuildPruneEps, lopts.PruneEps = linBuildPruneEps, linQueryPruneEps
	lin, err := cloudwalker.BuildLinEngine(q.Graph(), lopts)
	if err != nil {
		t.Fatal(err)
	}
	oracle.Check(t, http.DefaultClient, base, oracle.Ref{Q: q, Lin: lin}, oracle.Sample(q, 2, 4))

	var hz struct {
		Backends []string `json:"backends"`
	}
	oracle.Get(t, http.DefaultClient, base+"/healthz", http.StatusOK, &hz)
	if len(hz.Backends) != 2 {
		t.Fatalf("healthz backends %v, want [mc lin]", hz.Backends)
	}

	// The Prometheus page of the live process must be scrapeable and
	// carry the counters the queries above incremented, including the
	// per-backend split.
	resp, err := http.Get(base + "/metrics")
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

	stopRun(t, done)
	if !strings.Contains(out.String(), "linearized engine ready") {
		t.Fatalf("missing lin build log:\n%s", out)
	}
}

// TestDaemonEndToEnd boots the daemon on artifacts written to disk
// (standing in for the cloudwalker CLI), checks its answers with the
// oracle, and shuts it down with SIGTERM — the full operational loop.
func TestDaemonEndToEnd(t *testing.T) {
	q, gpath, ipath := newFixture(t)
	base, done, out := startRun(t, "-graph", gpath, "-index", ipath)
	oracle.Check(t, http.DefaultClient, base, oracle.Ref{Q: q}, oracle.Sample(q, 3, 4))
	oracle.Get(t, http.DefaultClient, base+"/healthz", http.StatusOK, nil)
	stopRun(t, done)
	if !strings.Contains(out.String(), "drained") {
		t.Fatalf("missing drain log:\n%s", out)
	}
}

// TestDaemonDynamicEndToEnd boots the daemon in -dynamic mode, streams
// edge updates at it, forces a compaction/hot-swap, and checks queries
// flip to the new snapshot without the daemon missing a beat.
func TestDaemonDynamicEndToEnd(t *testing.T) {
	_, gpath, ipath := newFixture(t)
	base, done, out := startRun(t, "-graph", gpath, "-index", ipath, "-dynamic")

	// Apply updates: two fresh nodes, both cited by 1 and 2 (shared
	// in-neighbors drive SimRank, which walks backward).
	var er struct {
		Inserted int    `json:"inserted"`
		Pending  int    `json:"pending"`
		Gen      uint64 `json:"gen"`
	}
	oracle.Post(t, http.DefaultClient, base+"/edges", `{"insert":[[1,150],[2,150],[1,151],[2,151]]}`, http.StatusOK, &er)
	if er.Inserted != 4 || er.Pending != 4 {
		t.Fatalf("edges: %+v", er)
	}

	// Synchronous refresh: compaction + index rebuild + hot-swap.
	var rr struct {
		Swapped bool   `json:"swapped"`
		Gen     uint64 `json:"gen"`
		Nodes   int    `json:"nodes"`
	}
	oracle.Post(t, http.DefaultClient, base+"/refresh?wait=1", "", http.StatusOK, &rr)
	if !rr.Swapped || rr.Gen != er.Gen || rr.Nodes != 152 {
		t.Fatalf("refresh: %+v (want swap to gen %d, 152 nodes)", rr, er.Gen)
	}

	// The new nodes are queryable, served from the swapped snapshot.
	var pr oracle.Pair
	oracle.Get(t, http.DefaultClient, base+"/pair?i=150&j=151", http.StatusOK, &pr)
	if pr.Gen != er.Gen {
		t.Fatalf("pair: %+v, want gen %d", pr, er.Gen)
	}
	if pr.Score <= 0 {
		t.Fatalf("pair score %v, want > 0 (150 and 151 share both in-neighbor sets)", pr.Score)
	}

	stopRun(t, done)
	if !strings.Contains(out.String(), "dynamic updates enabled") {
		t.Fatalf("missing dynamic log:\n%s", out)
	}
}

// TestDaemonLinRebuildKeepsRestoredOptions: a daemon restored from a
// snapshot whose lin engine was solved exactly (-lin-prune 0) re-solves
// that engine after a hot-swap at the options it was serving with, not
// at the defaults of the restarted daemon's flags, which name none.
func TestDaemonLinRebuildKeepsRestoredOptions(t *testing.T) {
	_, gpath, ipath := newFixture(t)
	snapDir := t.TempDir()
	base, done, _ := startRun(t, "-graph", gpath, "-index", ipath, "-snapshot", snapDir, "-lin", "-lin-prune", "0")
	mustPost(t, base+"/snapshot", "")
	stopRun(t, done)

	base, done, _ = startRun(t, "-snapshot", snapDir, "-dynamic")
	mustPost(t, base+"/edges", `{"insert":[[1,150],[2,150],[1,151],[2,151]]}`)
	mustPost(t, base+"/refresh?wait=1", "")
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
	stopRun(t, done)

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

// TestDaemonSnapshotDirCreated: a daemon started with a -snapshot
// directory that does not exist yet makes it, so POST /snapshot answers
// 200 and the file lands where a restart looks for it.
func TestDaemonSnapshotDirCreated(t *testing.T) {
	_, gpath, ipath := newFixture(t)
	snapDir := filepath.Join(t.TempDir(), "state", "fleet-a")
	base, done, _ := startRun(t, "-graph", gpath, "-index", ipath, "-snapshot", snapDir)
	mustPost(t, base+"/snapshot", "")
	stopRun(t, done)
	if _, err := os.Stat(cloudwalker.ServingSnapshotPath(snapDir)); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
}

// startRun runs the daemon with args on an ephemeral port and returns
// its base URL, the channel run's result arrives on, and its output
// (complete once that result arrived).
func startRun(t *testing.T, args ...string) (string, chan error, *bytes.Buffer) {
	t.Helper()
	ready, done, out := make(chan string, 1), make(chan error, 1), new(bytes.Buffer)
	go func() { done <- run(append(args, "-addr", "127.0.0.1:0"), out, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr, done, out
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("daemon never became ready")
	}
	return "", nil, nil
}

// stopRun sends the process one SIGTERM, which every running daemon
// receives, and waits for each to drain.
func stopRun(t *testing.T, dones ...chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for _, done := range dones {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("shutdown returned %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon never drained")
		}
	}
}

// mustPost POSTs body to url and fails the test unless it answers 200.
func mustPost(t *testing.T, url, body string) {
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
