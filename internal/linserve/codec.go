package linserve

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"cloudwalker/internal/binfmt"
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

// Save serializes the engine's diagonal and options.
func (e *Engine) Save(w io.Writer) error {
	header := []uint64{
		linMagic, linVersion, uint64(len(e.diag)),
		math.Float64bits(e.opts.C), uint64(e.opts.T), uint64(e.opts.Sweeps),
		math.Float64bits(e.opts.BuildPruneEps), math.Float64bits(e.opts.PruneEps),
		0, 0, // reserved: rank, seed
	}
	if err := binfmt.Write(w, header, e.diag); err != nil {
		return fmt.Errorf("linserve: writing: %w", err)
	}
	return nil
}

// Load deserializes an engine and binds it to g, validating that the
// persisted diagonal matches the graph.
func Load(r io.Reader, g *graph.Graph) (*Engine, error) {
	br := bufio.NewReader(r)
	var header [8]uint64
	if _, err := binfmt.ReadHeader(br, linMagic, linVersion, header[:]); err != nil {
		return nil, fmt.Errorf("linserve: %w", err)
	}
	if n := header[0]; n != uint64(g.NumNodes()) {
		return nil, fmt.Errorf("linserve: section built for %d nodes, graph has %d", n, g.NumNodes())
	}
	if rank := header[6]; rank != 0 {
		return nil, fmt.Errorf("linserve: section carries a rank-%d low-rank factorization; low-rank single-source is no longer served", rank)
	}
	opts := Options{
		C:             math.Float64frombits(header[1]),
		T:             int(header[2]),
		Sweeps:        int(header[3]),
		BuildPruneEps: math.Float64frombits(header[4]),
		PruneEps:      math.Float64frombits(header[5]),
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
	diag, err := binfmt.ReadValues[float64](br, g.NumNodes())
	if err != nil {
		return nil, fmt.Errorf("linserve: reading diagonal: %w", err)
	}
	// New validates the query options and diag ∈ [0,1] (rejecting NaN).
	return New(g, diag, opts)
}
