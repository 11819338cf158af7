// Package binfmt is the framing every persisted file format shares (the
// graph CWLK, index CWIX, indexing system CWSY, top-k store CWSS and
// linearized-engine CWLN): a header of little-endian uint64 words that
// opens with a magic number and a version, then little-endian arrays. A
// format owns only its word layout and the checks on what the words
// claim; this package owns how they are written and read.
package binfmt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Write writes header as little-endian uint64 words, then each array in
// order (any fixed-size value or slice binary.Write takes), through one
// buffered writer.
func Write(w io.Writer, header []uint64, arrays ...any) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, header); err != nil {
		return err
	}
	for _, a := range arrays {
		if err := binary.Write(bw, binary.LittleEndian, a); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadHeader reads a header's magic and version words, refuses a magic
// other than magic and a version outside [1, maxVersion], then fills
// words with the header's remaining words in one read. It returns the
// version.
func ReadHeader(r io.Reader, magic, maxVersion uint64, words []uint64) (uint64, error) {
	var mv [2]uint64
	if err := binary.Read(r, binary.LittleEndian, &mv); err != nil {
		return 0, fmt.Errorf("reading header: %w", err)
	}
	if mv[0] != magic {
		return 0, fmt.Errorf("bad magic %#x", mv[0])
	}
	if mv[1] < 1 || mv[1] > maxVersion {
		return 0, fmt.Errorf("unsupported version %d", mv[1])
	}
	if err := binary.Read(r, binary.LittleEndian, words); err != nil {
		return 0, fmt.Errorf("reading header: %w", err)
	}
	return mv[1], nil
}

// ReadValues reads n little-endian values from r. It reads a bounded
// chunk at a time and grows the slice, doubling up to n, as the bytes
// arrive, so a header that claims more values than its input holds
// fails on the short read having allocated a few times what was there,
// not the n it asked for.
func ReadValues[T int32 | int64 | float64](r io.Reader, n int) ([]T, error) {
	const chunk = 1 << 16
	out := make([]T, 0, min(n, chunk))
	for len(out) < n {
		k := min(n-len(out), chunk)
		if cap(out)-len(out) < k {
			out = append(make([]T, 0, min(n, 2*cap(out)+k)), out...)
		}
		out = out[:len(out)+k]
		if err := binary.Read(r, binary.LittleEndian, out[len(out)-k:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
