package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"cloudwalker/internal/binfmt"
)

// Index binary format: magic, version, the option scalars, n, then the
// diagonal as float64s. Little-endian throughout. The offline stage for a
// billion-node graph takes 110 hours in the paper — persisting its output
// is part of the system, not a convenience.
//
// Version history: v1 carries 7 option scalars. v2 appended two words, an
// adaptive-sampling default (ε, δ) that pair queries inherited; an answer
// now depends only on its own request, so Save writes v1 and ReadIndex
// reads a v2 header and discards those two words.
const (
	indexMagic   = 0x43574958 // "CWIX"
	indexVersion = 1
)

// Save serializes the index.
func (ix *Index) Save(w io.Writer) error {
	header := []uint64{
		indexMagic,
		indexVersion,
		math.Float64bits(ix.Opts.C),
		uint64(ix.Opts.T),
		uint64(ix.Opts.L),
		uint64(ix.Opts.R),
		uint64(ix.Opts.RPrime),
		ix.Opts.Seed,
		math.Float64bits(ix.Opts.PruneEps),
		uint64(len(ix.Diag)),
	}
	if err := binfmt.Write(w, header, ix.Diag); err != nil {
		return fmt.Errorf("core: writing index: %v", err)
	}
	return nil
}

// ReadIndex deserializes an index written by Save (versions 1 and 2).
func ReadIndex(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	var opts [7]uint64
	version, err := binfmt.ReadHeader(br, indexMagic, 2, opts[:])
	if err != nil {
		return nil, fmt.Errorf("core: index: %v", err)
	}
	ix := &Index{
		Opts: Options{
			C:        math.Float64frombits(opts[0]),
			T:        int(opts[1]),
			L:        int(opts[2]),
			R:        int(opts[3]),
			RPrime:   int(opts[4]),
			Seed:     opts[5],
			PruneEps: math.Float64frombits(opts[6]),
		},
	}
	if version == 2 {
		if _, err := br.Discard(16); err != nil {
			return nil, fmt.Errorf("core: reading index header: %v", err)
		}
	}
	var nWord uint64
	if err := binary.Read(br, binary.LittleEndian, &nWord); err != nil {
		return nil, fmt.Errorf("core: reading index header: %v", err)
	}
	if nWord > math.MaxInt32 { // one entry per node, and node ids are int32
		return nil, fmt.Errorf("core: index size %d exceeds %d nodes", nWord, math.MaxInt32)
	}
	if ix.Diag, err = binfmt.ReadValues[float64](br, int(nWord)); err != nil {
		return nil, fmt.Errorf("core: reading diagonal: %v", err)
	}
	if err := ix.Opts.Validate(); err != nil {
		return nil, err
	}
	return ix, nil
}
