package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"cloudwalker/internal/core"
	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/linserve"
	"cloudwalker/internal/simstore"
	"cloudwalker/internal/sparse"
)

// TestFormatsPinned writes each persisted file format for fixed inputs
// and compares the SHA-256 of its bytes to a recorded constant. A codec
// rewrite that claims byte-identical files keeps every hash; a
// deliberate format change moves its constant in the same diff.
func TestFormatsPinned(t *testing.T) {
	g, err := gen.RMAT(200, 1600, gen.DefaultRMAT, 23)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{C: 0.6, T: 5, L: 3, R: 30, RPrime: 200, Seed: 9, PruneEps: 1e-4}
	idx, _, err := core.BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.BuildSystem(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	store, err := simstore.New(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, lst := range [][]core.Neighbor{
		{{Node: 1, Score: 0.5}, {Node: 4, Score: 0.25}, {Node: 2, Score: 0.125}},
		{},
		{{Node: 0, Score: 0.3}},
		{{Node: 2, Score: 1}, {Node: 1, Score: 1.0 / 3}},
	} {
		if err := store.Set(i, lst); err != nil {
			t.Fatal(err)
		}
	}
	lopts := linserve.DefaultOptions()
	lopts.T, lopts.BuildPruneEps, lopts.PruneEps = 5, 1e-6, 1e-4
	lin, err := linserve.Build(g, lopts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.NewQuerier(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := WriteSnapshot(dir, &Snapshot{Gen: 7, Q: q, Lin: lin}); err != nil {
		t.Fatal(err)
	}
	cwsn, err := os.ReadFile(SnapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	encode := func(write func(*bytes.Buffer) error) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, f := range []struct {
		name string
		data []byte
		want string
	}{
		{"CWLK", encode(func(b *bytes.Buffer) error { return graph.WriteBinary(b, g) }), "8baaf51e83a07608cf299aea0b0784df130b296f2fb824db24bd66b3270de1cf"},
		{"CWIX", encode(func(b *bytes.Buffer) error { return idx.Save(b) }), "3483110ea49c1b660d22259629ff13797ed35056a0b812a97559b4257460ae4d"},
		{"CWSY", encode(func(b *bytes.Buffer) error { return sparse.WriteMatrix(b, sys.Matrix()) }), "2a47781a267b2ce501360068dcca7e5a8bbf979fc61458467e434aace9413978"},
		{"CWSS", encode(func(b *bytes.Buffer) error { return store.Save(b) }), "1a2289d01b40eee4ce73c50e05f42f28ca95e281aa34932c67e2f37c957a41dd"},
		{"CWLN", encode(func(b *bytes.Buffer) error { return lin.Save(b) }), "2acf2929ba136d92a67d2541d4f226f416bf3f752fdccc386f31de4f46e0eb34"},
		{"CWSN", cwsn, "de4fd6f556aa360106b00b301701351e192336757c856e848eb072890a63ed15"},
	} {
		sum := sha256.Sum256(f.data)
		if got := hex.EncodeToString(sum[:]); got != f.want {
			t.Errorf("%s: %d bytes hash to %s, want %s", f.name, len(f.data), got, f.want)
		}
	}
}
