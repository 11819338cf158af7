package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"cloudwalker/internal/binfmt"
)

// The text format is the SNAP-style edge list used by the paper's datasets:
// one "src dst" pair per line, '#' or '%' starting a comment line. Node ids
// need not be contiguous in the file; ReadEdgeList densifies nothing — ids
// are taken literally and the node count is max(id)+1 unless a larger hint
// is given. A first line of exactly the form "# nodes=N edges=M", which
// WriteEdgeList writes, is such a hint: N keeps the nodes past the last
// one with an edge.

// ReadEdgeList parses a text edge list from r. minNodes lets callers force
// a node count larger than max(id)+1 (e.g. to include isolated nodes); a
// "# nodes=N edges=M" first line raises it to N.
func ReadEdgeList(r io.Reader, minNodes int) (*Graph, error) {
	b := NewBuilder(minNodes)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line, fields, nf := edgeFields(sc.Bytes())
		if lineNo == 1 {
			if ns, ok := edgeListHeader(line); ok {
				n, err := parseID(ns)
				if err != nil {
					return nil, fmt.Errorf("graph: line 1: bad node count %q: %v", ns, err)
				}
				b.Grow(n)
				continue
			}
		}
		if len(line) == 0 || line[0] == '#' || line[0] == '%' {
			continue
		}
		if nf < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'src dst', got %q", lineNo, line)
		}
		u, err := parseID(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %v", lineNo, fields[0], err)
		}
		v, err := parseID(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q: %v", lineNo, fields[1], err)
		}
		if err := b.AddEdgeGrow(u, v); err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %v", err)
	}
	return b.Build()
}

// edgeListHeader returns N of a "# nodes=N edges=M" line, N and M plain
// decimal digits; ok is false for any other line.
func edgeListHeader(line []byte) (n []byte, ok bool) {
	rest, ok := bytes.CutPrefix(line, []byte("# nodes="))
	if !ok {
		return nil, false
	}
	n, m, ok := bytes.Cut(rest, []byte(" edges="))
	digits := func(b []byte) bool {
		return len(b) > 0 && !slices.ContainsFunc(b, func(c byte) bool { return c < '0' || c > '9' })
	}
	return n, ok && digits(n) && digits(m)
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts, the set
// strings.Fields and strings.TrimSpace split and trim on.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// edgeFields trims line and returns it with its first two whitespace-
// separated fields; nf counts them (at most 2). An ASCII line, the norm, is
// split in place without allocating. A line with any other byte goes
// through strings.Fields, so Unicode whitespace separates fields there too.
func edgeFields(line []byte) (trimmed []byte, fields [2][]byte, nf int) {
	for _, c := range line {
		if c >= utf8.RuneSelf {
			s := strings.TrimSpace(string(line))
			for _, f := range strings.Fields(s) {
				if nf == len(fields) {
					break
				}
				fields[nf] = []byte(f)
				nf++
			}
			return []byte(s), fields, nf
		}
	}
	for len(line) > 0 && asciiSpace[line[0]] {
		line = line[1:]
	}
	for len(line) > 0 && asciiSpace[line[len(line)-1]] {
		line = line[:len(line)-1]
	}
	rest := line
	for len(rest) > 0 && nf < len(fields) {
		end := 0
		for end < len(rest) && !asciiSpace[rest[end]] {
			end++
		}
		fields[nf], rest = rest[:end], rest[end:]
		nf++
		for len(rest) > 0 && asciiSpace[rest[0]] {
			rest = rest[1:]
		}
	}
	return line, fields, nf
}

// parseID parses a node id exactly as strconv.ParseInt(s, 10, 32) does.
// Node ids are int32 throughout the CSR representation; parsing at 32 bits
// rejects overflowing ids up front instead of letting them wrap (or
// allocate O(id) memory) further down. Plain decimal digits with an
// optional sign are parsed in place; anything else, and every error, is
// left to strconv.
func parseID(s []byte) (int, error) {
	neg := len(s) > 0 && s[0] == '-'
	digits := s
	if len(digits) > 0 && (digits[0] == '+' || neg) {
		digits = digits[1:]
	}
	var x int64
	ok := len(digits) > 0
	for _, c := range digits {
		if c < '0' || c > '9' || x > math.MaxInt32 {
			ok = false
			break
		}
		x = x*10 + int64(c-'0')
	}
	if neg {
		x = -x
	}
	if ok && x >= math.MinInt32 && x <= math.MaxInt32 {
		return int(x), nil
	}
	v, err := strconv.ParseInt(string(s), 10, 32)
	return int(v), err
}

// WriteEdgeList writes the graph as a text edge list with a header comment.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	var writeErr error
	g.Edges(func(u, v int32) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			writeErr = err
			return false
		}
		return true
	})
	if writeErr != nil {
		return writeErr
	}
	return bw.Flush()
}

// Binary format: magic, version, n, m, then the forward CSR's offsets
// and adjacency. All integers little-endian. The reverse CSR is rebuilt
// on load rather than stored, halving file size (the paper's clue-web
// edge file is 400 GB; format economy matters at that scale).
const (
	binaryMagic   = 0x43574c4b // "CWLK"
	binaryVersion = 1
)

// WriteBinary serializes g to w in the compact binary format.
func WriteBinary(w io.Writer, g *Graph) error {
	hdr := []uint64{binaryMagic, binaryVersion, uint64(g.n), uint64(g.m)}
	if err := binfmt.Write(w, hdr, g.outOff, g.outAdj); err != nil {
		return fmt.Errorf("graph: writing: %v", err)
	}
	return nil
}

// ReadBinary deserializes a graph written by WriteBinary and rebuilds the
// reverse CSR.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var hdr [2]uint64
	if _, err := binfmt.ReadHeader(br, binaryMagic, binaryVersion, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: %v", err)
	}
	// Node ids are int32, and a walk view's offsets uint32.
	if hdr[0] > math.MaxInt32 || hdr[1] > maxViewEdges {
		return nil, fmt.Errorf("graph: dimensions n=%d m=%d exceed %d nodes or %d edges",
			hdr[0], hdr[1], math.MaxInt32, int64(maxViewEdges))
	}
	n, m := int(hdr[0]), int(hdr[1])
	g := &Graph{n: n, m: m}
	var err error
	if g.outOff, err = binfmt.ReadValues[int64](br, n+1); err != nil {
		return nil, fmt.Errorf("graph: reading offsets: %v", err)
	}
	if g.outAdj, err = binfmt.ReadValues[int32](br, m); err != nil {
		return nil, fmt.Errorf("graph: reading adjacency: %v", err)
	}
	if g.outOff[0] != 0 {
		return nil, fmt.Errorf("graph: corrupt offsets at node 0")
	}
	for u := 0; u < n; u++ {
		if g.outOff[u] > g.outOff[u+1] || g.outOff[u+1] > int64(m) {
			return nil, fmt.Errorf("graph: corrupt offsets at node %d", u)
		}
	}
	for _, v := range g.outAdj {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("graph: adjacency entry %d out of range", v)
		}
	}
	// Rebuild the reverse CSR with Build's chunked counting sort.
	g.inOff = make([]int64, n+1)
	g.inAdj = make([]int32, m)
	newChunkSort(n, buildChunks(n, m)).transpose(g.outOff, g.outAdj, g.inOff, g.inAdj)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
