package linserve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"cloudwalker/internal/graph"
)

// Binary engine format ("CWLN"): magic, version, node count, the build
// options the diagonal was solved under, two reserved words, and the
// diagonal itself. Little-endian.
//
// The reserved words once held a low-rank factorization's rank and sketch
// seed. A rank other than 0 means factor arrays follow the diagonal, from
// an engine that answered single-source from them; such a section is
// refused, because restoring it would silently change those answers. The
// seed word is read and ignored.
//
// The section is embedded inside the CWSN snapshot container, whose crc32
// trailer covers it; the decoder here still validates structurally (magic,
// version, dimensions, finite in-range values) so a truncated or bit-
// flipped section is rejected with a useful error rather than served.
const (
	linMagic   = 0x43574c4e // "CWLN"
	linVersion = 1
)

// maxCodecNodes bounds the node count a decoder will allocate for,
// rejecting length fields from corrupt headers before they turn into
// multi-gigabyte allocations.
const maxCodecNodes = 1 << 24

// Save serializes the engine's diagonal and options.
func (e *Engine) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	header := []uint64{
		linMagic, linVersion, uint64(len(e.diag)),
		math.Float64bits(e.opts.C), uint64(e.opts.T), uint64(e.opts.Sweeps),
		math.Float64bits(e.opts.BuildPruneEps), math.Float64bits(e.opts.PruneEps),
		0, 0, // reserved: rank, seed
	}
	for _, h := range header {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return fmt.Errorf("linserve: writing header: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, e.diag); err != nil {
		return fmt.Errorf("linserve: writing diagonal: %w", err)
	}
	return bw.Flush()
}

// Load deserializes an engine and binds it to g, validating that the
// persisted diagonal matches the graph.
func Load(r io.Reader, g *graph.Graph) (*Engine, error) {
	br := bufio.NewReader(r)
	var header [10]uint64
	for i := range header {
		if err := binary.Read(br, binary.LittleEndian, &header[i]); err != nil {
			return nil, fmt.Errorf("linserve: reading header: %w", err)
		}
	}
	if header[0] != linMagic {
		return nil, fmt.Errorf("linserve: bad magic %#x", header[0])
	}
	if header[1] != linVersion {
		return nil, fmt.Errorf("linserve: unsupported version %d", header[1])
	}
	n := header[2]
	if n > maxCodecNodes {
		return nil, fmt.Errorf("linserve: implausible node count %d", n)
	}
	if int(n) != g.NumNodes() {
		return nil, fmt.Errorf("linserve: section built for %d nodes, graph has %d", n, g.NumNodes())
	}
	if rank := header[8]; rank != 0 {
		return nil, fmt.Errorf("linserve: section carries a rank-%d low-rank factorization; low-rank single-source is no longer served", rank)
	}
	opts := Options{
		C:             math.Float64frombits(header[3]),
		T:             int(header[4]),
		Sweeps:        int(header[5]),
		BuildPruneEps: math.Float64frombits(header[6]),
		PruneEps:      math.Float64frombits(header[7]),
	}
	if opts.T > 1<<20 {
		return nil, fmt.Errorf("linserve: implausible series length %d", opts.T)
	}
	// Load checks what New checks, which it calls below. The sweep count
	// and build threshold are provenance (an engine New bound saves 0
	// sweeps), but a negative count or a non-finite threshold is still a
	// corrupt header.
	if opts.Sweeps < 0 {
		return nil, fmt.Errorf("linserve: negative sweep count %d", opts.Sweeps)
	}
	if err := checkEps("build prune threshold", opts.BuildPruneEps); err != nil {
		return nil, err
	}
	diag := make([]float64, n)
	if err := binary.Read(br, binary.LittleEndian, diag); err != nil {
		return nil, fmt.Errorf("linserve: reading diagonal: %w", err)
	}
	// New validates the query options and diag ∈ [0,1] (rejecting NaN).
	return New(g, diag, opts)
}
