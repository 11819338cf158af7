package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"os"
	"strings"
	"testing"

	"cloudwalker/internal/core"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/linserve"
	"cloudwalker/internal/simstore"
)

// storeImage encodes snap the way a writer that still persisted a /topk
// store did: flag bit 0 and a real simstore section between the index
// and the lin section.
func storeImage(tb testing.TB, snap *Snapshot) []byte {
	tb.Helper()
	var g, idx, st bytes.Buffer
	if err := graph.WriteBinary(&g, snap.Q.Graph()); err != nil {
		tb.Fatal(err)
	}
	if err := snap.Q.Index().Save(&idx); err != nil {
		tb.Fatal(err)
	}
	store, err := simstore.New(snap.Q.Graph().NumNodes(), 2)
	if err != nil {
		tb.Fatal(err)
	}
	if err := store.Set(1, []core.Neighbor{{Node: 2, Score: 0.5}}); err != nil {
		tb.Fatal(err)
	}
	if err := store.Save(&st); err != nil {
		tb.Fatal(err)
	}
	flags := uint64(snapshotFlagHasStore)
	sections := [][]byte{g.Bytes(), idx.Bytes(), st.Bytes()}
	if snap.Lin != nil {
		var lin bytes.Buffer
		if err := snap.Lin.Save(&lin); err != nil {
			tb.Fatal(err)
		}
		flags |= snapshotFlagHasLin
		sections = append(sections, lin.Bytes())
	}
	return encodeSnapshot(flags, snap.Gen, sections...)
}

// reflag returns a copy of a snapshot image with its flags word replaced
// and the crc32 trailer recomputed, so only the flags are wrong.
func reflag(raw []byte, flags uint64) []byte {
	le := binary.LittleEndian
	b := append([]byte(nil), raw...)
	le.PutUint64(b[8:16], flags)
	le.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	return b
}

func TestSnapshotRoundTrip(t *testing.T) {
	q := querier(t)
	dir := t.TempDir()
	snap := &Snapshot{Gen: 42, Q: q}
	size, err := WriteSnapshot(dir, snap)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(SnapshotPath(dir)); err != nil || fi.Size() != size {
		t.Fatalf("snapshot file: %v (size %v, want %d)", err, fi, size)
	}
	ps, err := ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Gen != 42 {
		t.Fatalf("Gen = %d, want 42", ps.Gen)
	}
	if ps.Q.Graph().NumNodes() != q.Graph().NumNodes() || ps.Q.Graph().NumEdges() != q.Graph().NumEdges() {
		t.Fatalf("graph shape %d/%d, want %d/%d",
			ps.Q.Graph().NumNodes(), ps.Q.Graph().NumEdges(), q.Graph().NumNodes(), q.Graph().NumEdges())
	}
	// The restored querier (ReadSnapshot binds it) must answer bit-identically: the index carries
	// the walk options (incl. seed), and estimates are deterministic per
	// (pair, seed), so equality here proves the whole restart path skips
	// nothing that matters.
	rq := ps.Q
	for _, p := range [][2]int{{1, 2}, {10, 11}, {100, 200}} {
		want, err := q.SinglePair(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := rq.SinglePair(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("restored s(%d,%d) = %v, want bit-identical %v", p[0], p[1], got, want)
		}
	}
}

// TestSnapshotWithLin pins the lin section round trip: a snapshot
// carrying a linearized engine restores one that answers bit-identically
// (the diagonal is persisted, not re-solved).
func TestSnapshotWithLin(t *testing.T) {
	q := querier(t)
	opts := linserve.DefaultOptions()
	opts.T = 5
	opts.Sweeps = 6
	eng, err := linserve.Build(q.Graph(), opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := WriteSnapshot(dir, &Snapshot{Gen: 9, Q: q, Lin: eng}); err != nil {
		t.Fatal(err)
	}
	ps, err := ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Lin == nil {
		t.Fatal("lin engine not restored")
	}
	for _, p := range [][2]int{{1, 2}, {10, 11}, {100, 200}} {
		want, err := eng.SinglePair(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := ps.Lin.SinglePair(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("restored lin s(%d,%d) = %v, want bit-identical %v", p[0], p[1], got, want)
		}
	}
}

// TestSnapshotWithoutStore: the writer never sets the reserved store bit,
// whatever the snapshot holds.
func TestSnapshotWithoutStore(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSnapshot(dir, &Snapshot{Gen: 1, Q: querier(t), Lin: linEngine(t)}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(SnapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if flags := binary.LittleEndian.Uint64(raw[8:16]); flags != snapshotFlagHasLin {
		t.Fatalf("written flags %#x, want only the lin bit", flags)
	}
	if _, err := ReadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSkipsStoreSection: a file from a writer that still
// persisted the /topk store restores. The store section is stepped over
// by its length, and the lin section after it is still found.
func TestSnapshotSkipsStoreSection(t *testing.T) {
	q, eng := querier(t), linEngine(t)
	ps, err := decodeSnapshot(storeImage(t, &Snapshot{Gen: 4, Q: q, Lin: eng}))
	if err != nil {
		t.Fatalf("image with a store section refused: %v", err)
	}
	if ps.Gen != 4 || ps.Q.Graph().NumEdges() != q.Graph().NumEdges() || ps.Lin == nil {
		t.Fatalf("restored gen %d, %d edges, lin %v", ps.Gen, ps.Q.Graph().NumEdges(), ps.Lin != nil)
	}
	want, _ := eng.SinglePair(10, 11)
	if got, _ := ps.Lin.SinglePair(10, 11); got != want {
		t.Fatalf("lin section behind the store answers %v, want %v", got, want)
	}
}

// TestSnapshotRejectsUnknownFlags: a flag bit this reader does not know
// names a section it cannot frame, so the file is refused rather than
// half-read.
func TestSnapshotRejectsUnknownFlags(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSnapshot(dir, &Snapshot{Gen: 2, Q: querier(t)}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(SnapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, bit := range []uint{2, 7, 63} {
		_, err := decodeSnapshot(reflag(raw, 1<<bit))
		if err == nil || !strings.Contains(err.Error(), "unknown flag") {
			t.Errorf("flag bit %d: err %v, want an unknown-flag refusal", bit, err)
		}
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSnapshot(dir, &Snapshot{Gen: 3, Q: querier(t)}); err != nil {
		t.Fatal(err)
	}
	path := SnapshotPath(dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle: the checksum must catch it.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)/2] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(dir); err == nil {
		t.Fatal("ReadSnapshot accepted a corrupted file")
	}
	// Truncation (a crash mid-write would leave this only if rename were
	// not atomic — but a copied/partial file must still be rejected).
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(dir); err == nil {
		t.Fatal("ReadSnapshot accepted a truncated file")
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{SnapshotDir: dir, InitialGen: 7})

	// GET is not allowed; snapshotting is a state-changing operation.
	resp, err := ts.Client().Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /snapshot: status %d, want 405", resp.StatusCode)
	}

	resp, err = ts.Client().Post(ts.URL+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sr snapshotResponse
	decodeBody(t, resp, &sr)
	if resp.StatusCode != http.StatusOK || !sr.Saved || sr.Gen != 7 {
		t.Fatalf("POST /snapshot: status %d, body %+v", resp.StatusCode, sr)
	}
	ps, err := ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Gen != 7 {
		t.Fatalf("persisted gen %d, want 7", ps.Gen)
	}
	if got := srv.StatsSnapshot(); got.Gen != 7 {
		t.Fatalf("serving gen %d, want 7", got.Gen)
	}
}

func TestSnapshotEndpointDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Post(ts.URL+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /snapshot without -snapshot: status %d, want 503", resp.StatusCode)
	}
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		t.Fatalf("decoding %s: %v", buf.Bytes(), err)
	}
}
