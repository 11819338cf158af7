package graph

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// FuzzDynamicApply feeds random insert/delete/compact sequences to a
// Dynamic edit log and checks it stays consistent with a from-scratch
// CSR rebuild of the same edge set: the node count, a generation per
// applied edit, and a compaction whose CSR passes Validate and matches
// the rebuild bit-for-bit. This is the safety net under the serving
// tier's update path — any divergence here would become a wrong (and
// cached) SimRank answer after a hot-swap.
//
// Encoding: ops are consumed 3 bytes at a time — op = b0 % 4 (0,1 =
// insert, 2 = delete, 3 = compact mid-sequence, exercising the rebase),
// u = b1 % 16, v = b2 % 16. Self-loops must be rejected with an error.
func FuzzDynamicApply(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2})                               // one insert
	f.Add([]byte{0, 1, 2, 2, 1, 2})                      // insert then delete it
	f.Add([]byte{0, 1, 2, 0, 1, 2})                      // duplicate insert
	f.Add([]byte{0, 1, 1})                               // self-loop insert
	f.Add([]byte{0, 1, 2, 3, 0, 0, 2, 1, 2})             // insert, compact, delete
	f.Add([]byte{0, 15, 0, 0, 0, 15, 3, 9, 9, 2, 15, 0}) // growth + compact + delete
	f.Fuzz(func(t *testing.T, data []byte) {
		const nodeSpace = 16
		d := NewDynamic(nil, 0)
		ref := map[[2]int32]bool{}
		maxNode, applied := -1, uint64(0)
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % 4
			u := int(data[i+1] % nodeSpace)
			v := int(data[i+2] % nodeSpace)
			switch op {
			case 0, 1:
				ok, err := d.InsertEdge(u, v)
				if u == v {
					if err == nil {
						t.Fatalf("self-loop insert (%d,%d) accepted", u, v)
					}
					continue
				}
				if err != nil {
					t.Fatalf("insert (%d,%d): %v", u, v, err)
				}
				if ok == ref[[2]int32{int32(u), int32(v)}] {
					t.Fatalf("insert (%d,%d) applied=%v, reference disagrees", u, v, ok)
				}
				if ok {
					applied++
				}
				ref[[2]int32{int32(u), int32(v)}] = true
				if u > maxNode {
					maxNode = u
				}
				if v > maxNode {
					maxNode = v
				}
			case 2:
				ok, err := d.DeleteEdge(u, v)
				if u == v {
					if err == nil {
						t.Fatalf("self-loop delete (%d,%d) accepted", u, v)
					}
					continue
				}
				if err != nil {
					t.Fatalf("delete (%d,%d): %v", u, v, err)
				}
				if ok != ref[[2]int32{int32(u), int32(v)}] {
					t.Fatalf("delete (%d,%d) applied=%v, reference disagrees", u, v, ok)
				}
				if ok {
					applied++
				}
				delete(ref, [2]int32{int32(u), int32(v)})
			case 3:
				d.Compact()
			}
		}

		if d.Gen() != applied {
			t.Fatalf("Gen = %d after %d applied edits", d.Gen(), applied)
		}
		if d.NumNodes() != maxNode+1 {
			t.Fatalf("NumNodes = %d, max seen id %d", d.NumNodes(), maxNode)
		}

		// From-scratch rebuild of the surviving edge set.
		b := NewBuilder(d.NumNodes())
		for e := range ref {
			if err := b.AddEdge(int(e[0]), int(e[1])); err != nil {
				t.Fatal(err)
			}
		}
		want, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		got, _ := d.Compact()
		if err := got.Validate(); err != nil {
			t.Fatalf("compacted CSR invalid: %v", err)
		}
		checkSameGraph(t, got, want)
	})
}

// headerRE is the node-count header WriteEdgeList writes as line 1.
var headerRE = regexp.MustCompile(`^# nodes=([0-9]+) edges=([0-9]+)$`)

// referenceReadEdgeList is the strings.Fields + strconv.ParseInt parser
// ReadEdgeList's allocation-free split replaced; FuzzReadEdgeList requires
// both to accept the same inputs, with the same error text otherwise.
func referenceReadEdgeList(data []byte) (*Graph, error) {
	b := NewBuilder(0)
	for lineNo, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(strings.TrimSuffix(raw, "\r"))
		if h := headerRE.FindStringSubmatch(line); lineNo == 0 && h != nil {
			n, err := strconv.ParseInt(h[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line 1: bad node count %q: %v", h[1], err)
			}
			b.Grow(int(n))
			continue
		}
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'src dst', got %q", lineNo+1, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %v", lineNo+1, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q: %v", lineNo+1, fields[1], err)
		}
		if err := b.AddEdgeGrow(int(u), int(v)); err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo+1, err)
		}
	}
	return b.Build()
}

// FuzzReadEdgeList hardens the text parser that now sits on the query
// daemon's startup path for user-supplied files: arbitrary input must
// either produce a clean error or a graph whose CSR invariants hold —
// never a panic, an overflowed node id, or a corrupt adjacency.
func FuzzReadEdgeList(f *testing.F) {
	for _, seed := range []string{
		"",
		"# comment only\n% and matrix-market style\n",
		"0 1\n1 2\n2 0\n",
		"3 3\n",                        // self-loop (dropped by Build)
		"0 1\n0 1\n0 1\n",              // duplicate edges
		"a b\n",                        // junk tokens
		"0\n",                          // too few fields
		"0 1 9 extra tokens\n",         // extra fields are ignored
		"   \n\t\n0 2\n",               // blank and whitespace lines
		"-1 4\n",                       // negative id
		"5 9999999999\n",               // id overflows int32
		"4294967296 0\n",               // 2^32
		"0 2147483647\n",               // max int32 (rejected: id+1 overflows)
		"007 0x1\n",                    // leading zeros / hex-ish junk
		"1 2\r\n3 4\r\n",               // CRLF
		"# nodes=3 edges=2\n0 1\n12",   // header plus truncated tail
		"# nodes=9 edges=1\n0 1\n",     // header: nodes past the last edge
		"0 1\n# nodes=9 edges=1\n",     // a header past line 1 is a comment
		"# nodes=9 edges=x\n0 1\n",     // ... and so is a malformed one
		"# nodes=2147483648 edges=0\n", // node count beyond int32
		"0 1\n\v\f2 3\n  # x\n\t%x\n",  // every ASCII space; indented comments
		"+1 2\n0 -0\n00007 2\n",        // signs and leading zeros
		"0\u00a01\n\u00852 3\n",        // Unicode whitespace separates fields
		"\u20000 1\n \u00a0 \n",        // ... and is trimmed
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Resource cap, not a correctness screen: ids the parser accepts
		// allocate O(max id) CSR arrays, so skip the band it would accept
		// but the fuzz memory budget can't hold. Ids at or beyond int32
		// range stay in: they must be rejected before any allocation, and
		// that rejection path is exactly what fuzzing should exercise.
		// A header's node count N allocates the same, and is accepted up
		// to math.MaxInt32 itself.
		for _, tok := range strings.Fields(string(data)) {
			limit := int64(math.MaxInt32)
			if n, ok := strings.CutPrefix(tok, "nodes="); ok {
				tok, limit = n, limit+1
			}
			if v, err := strconv.Atoi(tok); err == nil && v > 1<<20 && int64(v) < limit {
				t.Skip("node id or count beyond fuzz memory budget")
			}
		}
		g, err := ReadEdgeList(bytes.NewReader(data), 0)
		want, wantErr := referenceReadEdgeList(data)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ReadEdgeList(%q) error %v, reference parser says %v", data, err, wantErr)
		}
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		checkSameGraph(t, g, want)
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted input %q yielded invalid graph: %v", data, err)
		}
		edges := 0
		g.Edges(func(u, v int32) bool {
			if u == v {
				t.Errorf("self-loop %d->%d survived Build", u, v)
			}
			if u < 0 || int(u) >= g.NumNodes() || v < 0 || int(v) >= g.NumNodes() {
				t.Errorf("edge %d->%d out of range [0,%d)", u, v, g.NumNodes())
			}
			edges++
			return true
		})
		if edges != g.NumEdges() {
			t.Fatalf("Edges visited %d edges, NumEdges says %d", edges, g.NumEdges())
		}
		// Accepted input must round-trip with no node-count hint: write →
		// reparse → same shape, trailing nodes without edges included.
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("writing accepted graph: %v", err)
		}
		g2, err := ReadEdgeList(&buf, 0)
		if err != nil {
			t.Fatalf("reparsing written graph: %v", err)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %d/%d -> %d/%d",
				g.NumNodes(), g.NumEdges(), g2.NumNodes(), g2.NumEdges())
		}
	})
}

// FuzzReadBinary hardens the binary decoder the CLI and the daemon load
// graphs with: arbitrary bytes either fail with an error or decode to a
// graph that passes Validate and that WriteBinary encodes back to the
// bytes it came from (the decoder ignores anything past the adjacency),
// so decoding again gives the same graph. Never a panic, and never an
// allocation the input's header asks for but its bytes do not back.
func FuzzReadBinary(f *testing.F) {
	var real bytes.Buffer
	if err := WriteBinary(&real, MustFromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {4, 0}})); err != nil {
		f.Fatal(err)
	}
	f.Add(real.Bytes())
	f.Add(binaryHeader(1<<36, 0))
	f.Add(binaryHeader(math.MaxInt32, math.MaxUint32))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph is invalid: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("re-encoding changed the bytes: %x, decoded from %x", buf.Bytes(), data)
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("decoding the re-encoded graph: %v", err)
		}
		checkSameGraph(t, g2, g)
	})
}
