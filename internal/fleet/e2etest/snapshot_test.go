package e2etest

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudwalker"
	"cloudwalker/internal/oracle"
)

// snapResp mirrors the POST /snapshot reply.
type snapResp struct {
	Saved bool   `json:"saved"`
	Gen   uint64 `json:"gen"`
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
}

// TestSnapshotKillRestartBitIdentical: the crash-recovery contract for
// -snapshot. A dynamic daemon applies edge updates and compacts (so its
// serving state is a post-startup index rebuild that exists NOWHERE on
// disk as artifact files), answers the oracle as a from-scratch index of
// the edited edge list does, persists via POST /snapshot, and is then
// SIGKILLed. The restart on the same port must restore the snapshot —
// announcing "restored snapshot gen N ... (no re-walk)" instead of
// loading -graph/-index — resume the persisted generation, and answer the
// oracle the same way.
func TestSnapshotKillRestartBitIdentical(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, "snap",
		"-graph", graphPath, "-index", indexPath, "-dynamic", "-snapshot", dir)
	waitHealthy(t, d.base(), -1)

	// Advance past the artifacts on disk: new edges + a compaction, so the
	// serving index differs from the index file and only the snapshot
	// captures it.
	inserts := [][2]int{{1, 5}, {2, 5}, {3, 9}, {4, 9}, {6, 44}}
	var er struct {
		Inserted int    `json:"inserted"`
		Gen      uint64 `json:"gen"`
	}
	oracle.Post(t, http.DefaultClient, d.base()+"/edges",
		`{"insert":[[1,5],[2,5],[3,9],[4,9],[6,44]]}`, http.StatusOK, &er)
	if er.Inserted == 0 {
		t.Fatalf("edge batch applied nothing: %+v", er)
	}
	oracle.Post(t, http.DefaultClient, d.base()+"/refresh?wait=1", "", http.StatusOK, nil)

	g := fixture.Graph()
	b := cloudwalker.NewGraphBuilder(g.NumNodes())
	g.Edges(func(u, v int32) bool {
		b.AddEdge(int(u), int(v))
		return true
	})
	for _, e := range inserts {
		b.AddEdge(e[0], e[1])
	}
	edited, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := cloudwalker.BuildIndex(edited, fixture.Index().Opts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := cloudwalker.NewQuerier(edited, idx)
	if err != nil {
		t.Fatal(err)
	}
	ref := oracle.Ref{Q: q, Gen: er.Gen}
	oracle.Check(t, http.DefaultClient, d.base(), ref, oracle.Sample(q, 6, 4))

	var sr snapResp
	oracle.Post(t, http.DefaultClient, d.base()+"/snapshot", "", http.StatusOK, &sr)
	if !sr.Saved || sr.Gen != er.Gen {
		t.Fatalf("snapshot reply %+v, want saved at gen %d", sr, er.Gen)
	}
	fi, err := os.Stat(filepath.Join(dir, "serving.cwsn"))
	if err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
	if fi.Size() != sr.Bytes {
		t.Fatalf("snapshot file is %d bytes, reply said %d", fi.Size(), sr.Bytes)
	}

	d.Kill() // SIGKILL: no drain, no shutdown hook — the crash case
	d.Restart()
	waitHealthy(t, d.base(), -1)

	if out := d.out.String(); !strings.Contains(out, fmt.Sprintf("restored snapshot gen %d", er.Gen)) {
		t.Fatalf("restart did not restore the snapshot (no re-walk skip); output:\n%s", out)
	}
	oracle.Check(t, http.DefaultClient, d.base(), ref, oracle.Sample(q, 6, 4))
}

// TestSnapshotStaticRestart pins the simpler static path: a non-dynamic
// daemon saves and restores, answering the oracle before and after, and
// a restart without any snapshot on disk falls back to a cold start from
// the artifact files.
func TestSnapshotStaticRestart(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, "snap-static",
		"-graph", graphPath, "-index", indexPath, "-snapshot", dir)
	waitHealthy(t, d.base(), -1)
	if strings.Contains(d.out.String(), "restored snapshot") {
		t.Fatal("cold start claimed to restore a snapshot from an empty dir")
	}
	oracle.Check(t, http.DefaultClient, d.base(), oracle.Ref{Q: fixture}, oracle.Sample(fixture, 7, 4))
	oracle.Post(t, http.DefaultClient, d.base()+"/snapshot", "", http.StatusOK, nil)

	d.Kill()
	d.Restart()
	waitHealthy(t, d.base(), -1)
	if !strings.Contains(d.out.String(), "restored snapshot gen 0") {
		t.Fatalf("static restart did not restore; output:\n%s", d.out.String())
	}
	oracle.Check(t, http.DefaultClient, d.base(), oracle.Ref{Q: fixture}, oracle.Sample(fixture, 7, 4))
}
