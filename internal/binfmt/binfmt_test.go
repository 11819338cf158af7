package binfmt

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []uint64{0xabc, 2, 3}, []int32{-1, 7}, uint32(5), []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 3*8+2*4+4+8 {
		t.Fatalf("wrote %d bytes", buf.Len())
	}
	var words [1]uint64
	version, err := ReadHeader(&buf, 0xabc, 2, words[:])
	if err != nil || version != 2 || words[0] != 3 {
		t.Fatalf("ReadHeader: version %d, words %v, err %v", version, words, err)
	}
	ints, err := ReadValues[int32](&buf, 2)
	if err != nil || !slices.Equal(ints, []int32{-1, 7}) {
		t.Fatalf("ReadValues[int32]: %v, %v", ints, err)
	}
	var five uint32
	if err := binary.Read(&buf, binary.LittleEndian, &five); err != nil || five != 5 {
		t.Fatalf("value between arrays: %d, %v", five, err)
	}
	floats, err := ReadValues[float64](&buf, 1)
	if err != nil || !slices.Equal(floats, []float64{0.5}) {
		t.Fatalf("ReadValues[float64]: %v, %v", floats, err)
	}
}

// TestReadHeaderRefuses: a wrong magic, a version outside [1, maxVersion]
// and a header cut short are errors.
func TestReadHeaderRefuses(t *testing.T) {
	header := func(words ...uint64) []byte {
		var b []byte
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	for name, in := range map[string][]byte{
		"magic":     header(0xabd, 1, 0),
		"version 0": header(0xabc, 0, 0),
		"version 3": header(0xabc, 3, 0),
		"no words":  header(0xabc, 1),
		"short":     header(0xabc)[:5],
	} {
		if _, err := ReadHeader(bytes.NewReader(in), 0xabc, 2, make([]uint64, 1)); err == nil {
			t.Errorf("%s: header accepted", name)
		}
	}
}

// TestReadValuesShortInput: a count larger than the input holds fails on
// the short read.
func TestReadValuesShortInput(t *testing.T) {
	in := binary.LittleEndian.AppendUint64(nil, 1)
	if _, err := ReadValues[int64](bytes.NewReader(in), 1<<40); err == nil {
		t.Fatal("short input accepted")
	}
}
