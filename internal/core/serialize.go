package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"cloudwalker/internal/graph"
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
	bw := bufio.NewWriter(w)
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
	for _, h := range header {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return fmt.Errorf("core: writing index header: %v", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, ix.Diag); err != nil {
		return fmt.Errorf("core: writing diagonal: %v", err)
	}
	return bw.Flush()
}

// ReadIndex deserializes an index written by Save (versions 1 and 2).
func ReadIndex(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	var fixed [9]uint64
	for i := range fixed {
		if err := binary.Read(br, binary.LittleEndian, &fixed[i]); err != nil {
			return nil, fmt.Errorf("core: reading index header: %v", err)
		}
	}
	if fixed[0] != indexMagic {
		return nil, fmt.Errorf("core: bad index magic %#x", fixed[0])
	}
	version := fixed[1]
	if version != 1 && version != 2 {
		return nil, fmt.Errorf("core: unsupported index version %d", version)
	}
	ix := &Index{
		Opts: Options{
			C:        math.Float64frombits(fixed[2]),
			T:        int(fixed[3]),
			L:        int(fixed[4]),
			R:        int(fixed[5]),
			RPrime:   int(fixed[6]),
			Seed:     fixed[7],
			PruneEps: math.Float64frombits(fixed[8]),
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
	diag, err := graph.ReadValues[float64](br, int(nWord))
	if err != nil {
		return nil, fmt.Errorf("core: reading diagonal: %v", err)
	}
	ix.Diag = diag
	if err := ix.Opts.Validate(); err != nil {
		return nil, err
	}
	return ix, nil
}
