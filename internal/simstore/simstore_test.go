package simstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"cloudwalker/internal/core"
	"cloudwalker/internal/xrand"
)

func nb(node int, score float64) core.Neighbor {
	return core.Neighbor{Node: int32(node), Score: score}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, 3); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := New(3, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestSetGetSortsAndTruncates(t *testing.T) {
	s, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Set(1, []core.Neighbor{nb(5, 0.1), nb(7, 0.9), nb(9, 0.5)}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Node != 7 || got[1].Node != 9 {
		t.Fatalf("list %+v", got)
	}
	if err := s.Set(5, nil); err == nil {
		t.Error("out-of-range set accepted")
	}
	if _, err := s.Get(-1); err == nil {
		t.Error("out-of-range get accepted")
	}
}

func TestSetCopiesInput(t *testing.T) {
	s, _ := New(1, 3)
	in := []core.Neighbor{nb(1, 0.5)}
	if err := s.Set(0, in); err != nil {
		t.Fatal(err)
	}
	in[0].Score = 0.99
	got, _ := s.Get(0)
	if got[0].Score != 0.5 {
		t.Fatal("store aliases caller slice")
	}
}

func TestFromResults(t *testing.T) {
	res := [][]core.Neighbor{
		{nb(1, 0.3)},
		{nb(0, 0.8), nb(2, 0.2)},
		nil,
	}
	s, err := FromResults(res, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumNodes() != 3 || s.K() != 2 {
		t.Fatalf("store %d/%d", s.NumNodes(), s.K())
	}
	got, _ := s.Get(1)
	if len(got) != 2 || got[0].Node != 0 {
		t.Fatalf("list %+v", got)
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	s, _ := New(4, 3)
	_ = s.Set(0, []core.Neighbor{nb(1, 0.75), nb(3, 0.25)})
	_ = s.Set(2, []core.Neighbor{nb(0, 1)})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 4 || got.K() != 3 {
		t.Fatalf("loaded %d/%d", got.NumNodes(), got.K())
	}
	lst, _ := got.Get(0)
	if len(lst) != 2 || lst[0].Node != 1 {
		t.Fatalf("loaded list %+v", lst)
	}
	// float32 rounding tolerance.
	if math.Abs(lst[0].Score-0.75) > 1e-6 {
		t.Fatalf("score %g", lst[0].Score)
	}
	if lst, _ := got.Get(1); len(lst) != 0 {
		t.Fatalf("unset list %+v", lst)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage accepted")
	}
	var buf bytes.Buffer
	buf.Write(make([]byte, 32))
	if _, err := Load(&buf); err == nil {
		t.Fatal("zero header accepted")
	}
}

// Property: save/load roundtrips arbitrary stores up to float32 rounding.
func TestQuickRoundtrip(t *testing.T) {
	f := func(seed uint64) bool {
		src := xrand.New(seed)
		n := src.Intn(20) + 1
		k := src.Intn(5) + 1
		s, err := New(n, k)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			var lst []core.Neighbor
			for j := 0; j < src.Intn(k+1); j++ {
				lst = append(lst, nb(src.Intn(n), src.Float64()))
			}
			if s.Set(i, lst) != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if s.Save(&buf) != nil {
			return false
		}
		got, err := Load(&buf)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			a, _ := s.Get(i)
			b, _ := got.Get(i)
			if len(a) != len(b) {
				return false
			}
			for j := range a {
				if a[j].Node != b[j].Node || math.Abs(a[j].Score-b[j].Score) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// savedStore serializes a small populated store and returns the bytes.
func savedStore(t *testing.T) []byte {
	t.Helper()
	s, err := New(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Set(0, []core.Neighbor{nb(1, 0.75), nb(3, 0.25)})
	_ = s.Set(2, []core.Neighbor{nb(0, 1), nb(4, 0.5), nb(1, 0.125)})
	_ = s.Set(4, []core.Neighbor{nb(2, 0.0625)})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStoreSaveLoadSaveByteEqual: the store format must be canonical —
// load followed by save reproduces the file byte for byte. (All seed
// scores above are exact in float32, so no rounding enters.)
func TestStoreSaveLoadSaveByteEqual(t *testing.T) {
	first := savedStore(t)
	s, err := Load(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := s.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second.Bytes()) {
		t.Fatalf("save→load→save changed bytes: %d vs %d", len(first), second.Len())
	}
}

// TestStoreLoadTruncated: every proper prefix errors cleanly.
func TestStoreLoadTruncated(t *testing.T) {
	full := savedStore(t)
	for _, cut := range []int{0, 3, 8, 31, 32, 36, len(full) / 2, len(full) - 1} {
		if cut >= len(full) {
			continue
		}
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d/%d bytes loaded without error", cut, len(full))
		}
	}
}

func TestStoreLoadBadMagic(t *testing.T) {
	corrupt := append([]byte(nil), savedStore(t)...)
	corrupt[0] ^= 0xff
	if _, err := Load(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("bad magic loaded without error")
	}
}

func TestStoreLoadWrongVersion(t *testing.T) {
	corrupt := append([]byte(nil), savedStore(t)...)
	binary.LittleEndian.PutUint64(corrupt[8:16], 999)
	if _, err := Load(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("future version loaded without error")
	}
}

// TestStoreLoadCorruptEntries: structurally valid headers with lying
// payloads (oversized list, out-of-range neighbor id) must be rejected.
func TestStoreLoadCorruptEntries(t *testing.T) {
	full := savedStore(t)
	// Node 0's list length lives right after the 32-byte header.
	over := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(over[32:36], 99) // exceeds k=3
	if _, err := Load(bytes.NewReader(over)); err == nil {
		t.Fatal("list length beyond k loaded without error")
	}
	badID := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(badID[36:40], 0x7fffffff) // node id 2^31-1 >> n=5
	if _, err := Load(bytes.NewReader(badID)); err == nil {
		t.Fatal("out-of-range neighbor id loaded without error")
	}
}

// storeHeader returns a store header claiming n nodes and top-k lists,
// followed by the given list-length words and nothing else.
func storeHeader(n, k uint64, lengths ...uint32) []byte {
	b := binary.LittleEndian.AppendUint64(nil, storeMagic)
	b = binary.LittleEndian.AppendUint64(b, storeVersion)
	b = binary.LittleEndian.AppendUint64(b, n)
	b = binary.LittleEndian.AppendUint64(b, k)
	for _, l := range lengths {
		b = binary.LittleEndian.AppendUint32(b, l)
	}
	return b
}

// TestLoadHugeHeader: a header claiming more nodes, or a list claiming
// more entries, than the input holds fails with an error, neither
// panicking nor allocating what it claims.
func TestLoadHugeHeader(t *testing.T) {
	for _, in := range [][]byte{
		storeHeader(1<<26, 1),
		storeHeader(1<<62, 1),
		storeHeader(math.MaxInt32, math.MaxInt32), // within the limit, but no body
		storeHeader(1, 1<<40, math.MaxUint32),
	} {
		before := totalAlloc()
		_, err := Load(bytes.NewReader(in))
		if grew := totalAlloc() - before; err == nil || grew >= 64<<20 {
			t.Errorf("input %x: err %v, allocated %d MB", in, err, grew>>20)
		}
	}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestStoreConcurrentAccess exercises the store's read/write locking
// under -race: readers serve point lookups while writers install lists.
func TestStoreConcurrentAccess(t *testing.T) {
	const n = 64
	s, err := New(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := xrand.NewStream(5, uint64(w))
			for i := 0; i < 2000; i++ {
				node := src.Intn(n)
				if w%2 == 0 {
					if err := s.Set(node, []core.Neighbor{nb(src.Intn(n), src.Float64())}); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				lst, err := s.Get(node)
				if err != nil {
					t.Error(err)
					return
				}
				if len(lst) > s.K() {
					t.Errorf("node %d list has %d entries, k=%d", node, len(lst), s.K())
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
