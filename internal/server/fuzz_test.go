package server

import (
	"os"
	"testing"

	"cloudwalker/internal/graph"
	"cloudwalker/internal/linserve"
)

// fuzzSnapshot is a small serving snapshot, with a lin section or not.
func fuzzSnapshot(f *testing.F, withLin bool) *Snapshot {
	f.Helper()
	g := graph.MustFromEdges(8, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 1}, {5, 2}, {6, 3}, {7, 0},
	})
	snap := &Snapshot{Gen: 5, Q: buildDynQuerier(f, g)}
	if withLin {
		opts := linserve.DefaultOptions()
		opts.T = 4
		opts.Sweeps = 4
		eng, err := linserve.Build(g, opts)
		if err != nil {
			f.Fatal(err)
		}
		snap.Lin = eng
	}
	return snap
}

// snapshotImage encodes a fuzz snapshot to bytes through the real writer,
// so fuzz seeds are genuine encodings.
func snapshotImage(f *testing.F, withLin bool) []byte {
	f.Helper()
	snap := fuzzSnapshot(f, withLin)
	dir := f.TempDir()
	if _, err := WriteSnapshot(dir, snap); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(SnapshotPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzSnapshotDecode drives the snapshot-file decoder (including the lin
// section) with arbitrary bytes: it must never panic and never accept an
// image whose sections do not reassemble a coherent snapshot. The crc32
// trailer screens most mutations cheaply; what survives it exercises the
// section framing and the per-section codecs. An image carrying the
// reserved store section is a seed that must be accepted.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add(snapshotImage(f, false))
	f.Add(snapshotImage(f, true))
	withStore := storeImage(f, fuzzSnapshot(f, true))
	if _, err := decodeSnapshot(withStore); err != nil {
		f.Fatalf("image with a store section refused: %v", err)
	}
	f.Add(withStore)
	f.Add([]byte{})
	f.Add([]byte{0x4e, 0x53, 0x57, 0x43}) // magic alone

	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		if ps.Q == nil {
			t.Fatal("accepted snapshot has no querier")
		}
		if ps.Lin != nil {
			// An accepted engine must be bound to the decoded graph and
			// answer queries in range.
			s, err := ps.Lin.SinglePair(0, ps.Q.Graph().NumNodes()-1)
			if err != nil {
				t.Fatalf("accepted lin engine cannot answer: %v", err)
			}
			if s < 0 || s > 1 {
				t.Fatalf("accepted lin engine score %v outside [0,1]", s)
			}
		}
	})
}
