package graph

import "sync"

// PullRows is one direction of the adjacency laid out for a pull — a
// matvec that, for every node, sums a dense vector over the node's row —
// rather than for a walk: the nodes that have a row, shortest row first
// (index order within a length), and their rows back to back in that
// order. Read in CSR order such a pass spends more time mispredicting
// where each short row of a skewed graph ends than summing it; here the
// length repeats row after row, no offset pair is loaded and no empty row
// is visited (one pass over RMAT(4000, 32000) on the reference box: 62 µs
// in CSR order, 25 µs in this one; over RMAT(100000, 1000000) 2.3 ms and
// 1.2 ms). The price is a second copy of the adjacency: 4 bytes an edge
// and 8 a row, for each direction that is asked for.
//
// A PullRows is immutable and safe for concurrent use.
type PullRows struct {
	Node []int32 // the nodes with a non-empty row
	Deg  []int32 // Deg[r] is the length of Node[r]'s row
	Adj  []int32 // the rows, concatenated in Node order
}

// lazyRows builds a PullRows on first use.
type lazyRows struct {
	once sync.Once
	rows PullRows
}

func (l *lazyRows) get(n int, row func(int) []int32) *PullRows {
	l.once.Do(func() {
		// A counting sort by length, placing nodes in index order: first
		// count the rows of each length, then next[d] is where the next
		// row of length d goes.
		var next []int
		rows, entries := 0, 0
		for v := 0; v < n; v++ {
			if d := len(row(v)); d > 0 {
				if d >= len(next) {
					next = append(next, make([]int, d+1-len(next))...)
				}
				next[d]++
				rows, entries = rows+1, entries+d
			}
		}
		for d, at := 0, 0; d < len(next); d++ {
			next[d], at = at, at+next[d]
		}
		r := &l.rows
		r.Node, r.Deg, r.Adj = make([]int32, rows), make([]int32, rows), make([]int32, 0, entries)
		for v := 0; v < n; v++ {
			if d := len(row(v)); d > 0 {
				r.Node[next[d]], r.Deg[next[d]] = int32(v), int32(d)
				next[d]++
			}
		}
		for _, v := range r.Node {
			r.Adj = append(r.Adj, row(int(v))...)
		}
	})
	return &l.rows
}

// OutRows returns the out-adjacency as pull rows (node k's row is Out(k)),
// built on first use and shared from then on.
func (g *Graph) OutRows() *PullRows { return g.outRows.get(g.n, g.OutNeighbors) }

// InRows returns the in-adjacency as pull rows (node i's row is In(i)),
// built on first use and shared from then on.
func (g *Graph) InRows() *PullRows { return g.inRows.get(g.n, g.InNeighbors) }
