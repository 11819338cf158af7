package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"cloudwalker/internal/sparse"
)

func testIndex() *Index {
	opts := DefaultOptions()
	return &Index{
		Diag: []float64{1, 0.75, 0.5, 0.8125, 1, 0.40625},
		Opts: opts,
	}
}

// savedIndex serializes the test index and returns the raw bytes.
func savedIndex(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := testIndex().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIndexSaveLoadSaveByteEqual: the format must be canonical — loading
// and re-saving reproduces the file byte for byte (no float drift, no
// field reordering), which is what makes artifact checksums meaningful.
func TestIndexSaveLoadSaveByteEqual(t *testing.T) {
	first := savedIndex(t)
	ix, err := ReadIndex(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := ix.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second.Bytes()) {
		t.Fatalf("save→load→save changed bytes: %d vs %d", len(first), second.Len())
	}
}

// TestIndexLoadTruncated: every proper prefix of a valid file must load
// with an error, never a panic or a silently short index.
func TestIndexLoadTruncated(t *testing.T) {
	full := savedIndex(t)
	for _, cut := range []int{0, 1, 7, 8, 16, 79, 80, len(full) - 9, len(full) - 1} {
		if cut >= len(full) {
			continue
		}
		if _, err := ReadIndex(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d/%d bytes loaded without error", cut, len(full))
		}
	}
}

// TestIndexLoadHugeHeader: a diagonal length beyond the node limit, or
// beyond the bytes that follow it, is an error, and decoding it allocates
// a bounded amount rather than what the header asks for.
func TestIndexLoadHugeHeader(t *testing.T) {
	raw := savedIndex(t)
	for _, n := range []uint64{1 << 36, math.MaxInt32} {
		binary.LittleEndian.PutUint64(raw[72:], n) // the word after the 9 header words
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		_, err := ReadIndex(bytes.NewReader(raw))
		runtime.ReadMemStats(&ms)
		if grew := ms.TotalAlloc - before; err == nil || grew >= 64<<20 {
			t.Errorf("diagonal length %d: err %v, allocated %d MB", n, err, grew>>20)
		}
	}
}

func TestIndexLoadBadMagic(t *testing.T) {
	corrupt := append([]byte(nil), savedIndex(t)...)
	corrupt[0] ^= 0xff
	if _, err := ReadIndex(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("bad magic loaded without error")
	}
}

func TestIndexLoadWrongVersion(t *testing.T) {
	corrupt := append([]byte(nil), savedIndex(t)...)
	binary.LittleEndian.PutUint64(corrupt[8:16], 999)
	if _, err := ReadIndex(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("future version loaded without error")
	}
}

// TestIndexLoadCorruptOptions: a file whose header decodes to invalid
// CloudWalker parameters must be rejected by the options validator even
// though it is structurally well formed.
func TestIndexLoadCorruptOptions(t *testing.T) {
	corrupt := append([]byte(nil), savedIndex(t)...)
	// Header layout: magic, version, C, T, L, R, R', seed, eps, n.
	// Zeroing R (offset 5*8) makes the parameters invalid.
	binary.LittleEndian.PutUint64(corrupt[5*8:6*8], 0)
	if _, err := ReadIndex(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("invalid options loaded without error")
	}
}

// TestTopKNeighborsDegenerate: the exported truncation helper must not
// panic on k <= 0 (a serving-layer caller's "no results" case).
func TestTopKNeighborsDegenerate(t *testing.T) {
	v := &sparse.Vector{Idx: []int32{1, 4}, Val: []float64{0.5, 0.25}}
	if got := TopKNeighbors(v, -1, 0); len(got) != 0 {
		t.Fatalf("k=0 returned %+v", got)
	}
	if got := TopKNeighbors(v, -1, -3); len(got) != 0 {
		t.Fatalf("k<0 returned %+v", got)
	}
	if got := TopKNeighbors(v, 4, 5); len(got) != 1 || got[0].Node != 1 {
		t.Fatalf("k>len returned %+v", got)
	}
	if got := TopKNeighbors(&sparse.Vector{}, -1, 3); len(got) != 0 {
		t.Fatalf("empty vector returned %+v", got)
	}
}
