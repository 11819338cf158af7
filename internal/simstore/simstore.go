// Package simstore persists the output of all-pair (MCAP) jobs: one
// top-k similarity list per node. The paper's MCAP is an offline batch
// computation (O(n·T²·R'·log d)); its product — "the k most similar nodes
// for every node" — is what a recommender or related-pages backend
// actually serves, so it needs a compact on-disk artifact with cheap
// point lookups after loading.
//
// The format stores scores as float32: SimRank scores live in [0,1] and
// Monte Carlo error dominates float32 rounding, so the halved footprint
// is free accuracy-wise (the same argument the paper uses for running
// with R' rather than exhaustive walks).
package simstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"cloudwalker/internal/core"
)

// Store holds per-node top-k similarity lists. It is safe for concurrent
// use: lookups take a read lock, so a serving tier can answer point
// queries from many goroutines while a background job installs or merges
// lists. The common production shape — Load once, Get forever — runs with
// zero write-lock contention.
type Store struct {
	mu    sync.RWMutex
	k     int
	lists [][]core.Neighbor
}

// New creates an empty store for n nodes with lists of at most k entries.
func New(n, k int) (*Store, error) {
	if n < 0 {
		return nil, fmt.Errorf("simstore: negative node count %d", n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("simstore: top-k must be positive, got %d", k)
	}
	return &Store{k: k, lists: make([][]core.Neighbor, n)}, nil
}

// FromResults wraps the output of Querier.AllPairsTopK.
func FromResults(results [][]core.Neighbor, k int) (*Store, error) {
	s, err := New(len(results), k)
	if err != nil {
		return nil, err
	}
	for i, lst := range results {
		if err := s.Set(i, lst); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// NumNodes returns the node count.
func (s *Store) NumNodes() int { return len(s.lists) }

// K returns the per-node list capacity.
func (s *Store) K() int { return s.k }

// Set installs node i's list (sorted by descending score; truncated to k).
func (s *Store) Set(i int, list []core.Neighbor) error {
	if i < 0 || i >= len(s.lists) {
		return fmt.Errorf("simstore: node %d out of range [0,%d)", i, len(s.lists))
	}
	cp := make([]core.Neighbor, len(list))
	copy(cp, list)
	sort.SliceStable(cp, func(a, b int) bool { return cp[a].Score > cp[b].Score })
	if len(cp) > s.k {
		cp = cp[:s.k]
	}
	s.mu.Lock()
	s.lists[i] = cp
	s.mu.Unlock()
	return nil
}

// Get returns node i's list (nil if unset). The returned slice must not
// be modified: Set and Merge replace lists wholesale rather than mutating
// them, so a slice handed out here stays valid (a frozen snapshot) even if
// the entry is concurrently replaced.
func (s *Store) Get(i int) ([]core.Neighbor, error) {
	if i < 0 || i >= len(s.lists) {
		return nil, fmt.Errorf("simstore: node %d out of range [0,%d)", i, len(s.lists))
	}
	s.mu.RLock()
	lst := s.lists[i]
	s.mu.RUnlock()
	return lst, nil
}

// Merge folds another store into this one, keeping the k best-scoring
// entries per node (deduplicated by node id, max score wins). It is how
// partitioned MCAP jobs combine their shards.
func (s *Store) Merge(other *Store) error {
	if other.NumNodes() != s.NumNodes() {
		return fmt.Errorf("simstore: merging %d-node store into %d-node store",
			other.NumNodes(), s.NumNodes())
	}
	// Snapshot other's list headers under its own lock, then release it
	// before taking s's: never holding both locks rules out AB-BA
	// deadlock when two stores merge into each other concurrently. The
	// headers stay valid after release because lists are replaced
	// wholesale, never mutated; a Set racing this Merge lands either
	// before or after the snapshot, both fine.
	theirs := make([][]core.Neighbor, len(other.lists))
	other.mu.RLock()
	copy(theirs, other.lists)
	other.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.lists {
		if len(theirs[i]) == 0 {
			continue
		}
		best := make(map[int32]float64, len(s.lists[i])+len(theirs[i]))
		for _, nb := range s.lists[i] {
			best[nb.Node] = nb.Score
		}
		for _, nb := range theirs[i] {
			if sc, ok := best[nb.Node]; !ok || nb.Score > sc {
				best[nb.Node] = nb.Score
			}
		}
		merged := make([]core.Neighbor, 0, len(best))
		for node, score := range best {
			merged = append(merged, core.Neighbor{Node: node, Score: score})
		}
		sort.Slice(merged, func(a, b int) bool {
			if merged[a].Score != merged[b].Score {
				return merged[a].Score > merged[b].Score
			}
			return merged[a].Node < merged[b].Node
		})
		if len(merged) > s.k {
			merged = merged[:s.k]
		}
		s.lists[i] = merged
	}
	return nil
}

const (
	storeMagic   = 0x43575353 // "CWSS"
	storeVersion = 1
)

// Save writes the store in the compact binary format.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := bufio.NewWriter(w)
	header := []uint64{storeMagic, storeVersion, uint64(len(s.lists)), uint64(s.k)}
	for _, h := range header {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return fmt.Errorf("simstore: writing header: %v", err)
		}
	}
	for _, lst := range s.lists {
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(lst))); err != nil {
			return fmt.Errorf("simstore: writing list length: %v", err)
		}
		for _, nb := range lst {
			if err := binary.Write(bw, binary.LittleEndian, nb.Node); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, float32(nb.Score)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load reads a store written by Save. A header may claim up to
// math.MaxInt32 nodes, and each list up to k entries, but the lists grow
// as their bytes arrive: a header that claims more than its input holds
// fails on the short read, not on the allocation it asked for. Load
// reads nothing past the last list.
func Load(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	var header [4]uint64
	for i := range header {
		if err := binary.Read(br, binary.LittleEndian, &header[i]); err != nil {
			return nil, fmt.Errorf("simstore: reading header: %v", err)
		}
	}
	if header[0] != storeMagic {
		return nil, fmt.Errorf("simstore: bad magic %#x", header[0])
	}
	if header[1] != storeVersion {
		return nil, fmt.Errorf("simstore: unsupported version %d", header[1])
	}
	if header[2] > math.MaxInt32 {
		return nil, fmt.Errorf("simstore: node count %d exceeds %d", header[2], math.MaxInt32)
	}
	n, k := int(header[2]), int(header[3])
	s, err := New(0, k)
	if err != nil {
		return nil, err
	}
	const chunk = 1 << 16
	s.lists = make([][]core.Neighbor, 0, min(n, chunk))
	for i := 0; i < n; i++ {
		var length uint32
		if err := binary.Read(br, binary.LittleEndian, &length); err != nil {
			return nil, fmt.Errorf("simstore: reading node %d: %v", i, err)
		}
		if int(length) > k {
			return nil, fmt.Errorf("simstore: node %d list length %d exceeds k=%d", i, length, k)
		}
		lst := make([]core.Neighbor, 0, min(int(length), chunk))
		for range length {
			var node int32
			var score float32
			if err := binary.Read(br, binary.LittleEndian, &node); err != nil {
				return nil, err
			}
			if err := binary.Read(br, binary.LittleEndian, &score); err != nil {
				return nil, err
			}
			if node < 0 || int(node) >= n {
				return nil, fmt.Errorf("simstore: node %d references out-of-range %d", i, node)
			}
			if math.IsNaN(float64(score)) {
				return nil, fmt.Errorf("simstore: node %d has a NaN score", i)
			}
			lst = append(lst, core.Neighbor{Node: node, Score: float64(score)})
		}
		s.lists = append(s.lists, lst)
	}
	return s, nil
}
