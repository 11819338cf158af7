package simstore

import (
	"bytes"
	"math"
	"testing"

	"cloudwalker/internal/core"
)

// FuzzSimstoreLoad hardens the store decoder: arbitrary bytes either fail
// with an error or load a store that Save encodes back to the bytes it
// came from (Load reads nothing past the last list). Never a panic, and
// never an allocation a header asks for but its bytes do not back.
func FuzzSimstoreLoad(f *testing.F) {
	s, err := New(5, 3)
	if err != nil {
		f.Fatal(err)
	}
	_ = s.Set(0, []core.Neighbor{nb(1, 0.75), nb(3, 0.25)})
	_ = s.Set(4, []core.Neighbor{nb(2, 0.0625)})
	var real bytes.Buffer
	if err := s.Save(&real); err != nil {
		f.Fatal(err)
	}
	f.Add(real.Bytes())
	f.Add(storeHeader(1<<26, 1))
	f.Add(storeHeader(1, 1<<40, math.MaxUint32))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("re-saving changed the bytes: %x, loaded from %x", buf.Bytes(), data)
		}
	})
}
