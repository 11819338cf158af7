// Package simstore persists the output of all-pair (MCAP) jobs: one
// top-k similarity list per node. The paper's MCAP is an offline batch
// computation (one single-source query per node); its product — "the k
// most similar nodes for every node" — is what a recommender or
// related-pages backend actually serves, so it needs a compact on-disk
// artifact with cheap point lookups after loading.
//
// The format stores scores as float32: SimRank scores live in [0,1] and
// the estimate's own error (the served series is pruned at 1e-3) dwarfs
// float32 rounding, so the halved footprint is free accuracy-wise.
package simstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"cloudwalker/internal/binfmt"
	"cloudwalker/internal/core"
)

// Store holds per-node top-k similarity lists. It is safe for concurrent
// use: lookups take a read lock, so a serving tier can answer point
// queries from many goroutines while a background job installs lists (a
// job split by node installs each part with Set). The common production shape — Load once, Get forever — runs with
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
// be modified: Set replaces lists wholesale rather than mutating
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

const (
	storeMagic   = 0x43575353 // "CWSS"
	storeVersion = 1
)

// Save writes the store in the compact binary format: the header, then
// per node its list length and the list as interleaved (int32 node,
// float32 score) pairs.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	header := []uint64{storeMagic, storeVersion, uint64(len(s.lists)), uint64(s.k)}
	arrays := make([]any, 0, 2*len(s.lists))
	for _, lst := range s.lists {
		pairs := make([]int32, 0, 2*len(lst))
		for _, nb := range lst {
			pairs = append(pairs, nb.Node, int32(math.Float32bits(float32(nb.Score))))
		}
		arrays = append(arrays, uint32(len(lst)), pairs)
	}
	if err := binfmt.Write(w, header, arrays...); err != nil {
		return fmt.Errorf("simstore: writing: %v", err)
	}
	return nil
}

// Load reads a store written by Save. A header may claim up to
// math.MaxInt32 nodes, and each list up to k entries, but the lists grow
// as their bytes arrive: a header that claims more than its input holds
// fails on the short read, not on the allocation it asked for.
func Load(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	var header [2]uint64
	if _, err := binfmt.ReadHeader(br, storeMagic, storeVersion, header[:]); err != nil {
		return nil, fmt.Errorf("simstore: %v", err)
	}
	if header[0] > math.MaxInt32 {
		return nil, fmt.Errorf("simstore: node count %d exceeds %d", header[0], math.MaxInt32)
	}
	n, k := int(header[0]), int(header[1])
	s, err := New(0, k)
	if err != nil {
		return nil, err
	}
	s.lists = make([][]core.Neighbor, 0, min(n, 1<<16))
	for i := 0; i < n; i++ {
		var length uint32
		if err := binary.Read(br, binary.LittleEndian, &length); err != nil {
			return nil, fmt.Errorf("simstore: reading node %d: %v", i, err)
		}
		if int(length) > k {
			return nil, fmt.Errorf("simstore: node %d list length %d exceeds k=%d", i, length, k)
		}
		pairs, err := binfmt.ReadValues[int32](br, 2*int(length))
		if err != nil {
			return nil, fmt.Errorf("simstore: reading node %d list: %v", i, err)
		}
		lst := make([]core.Neighbor, 0, length)
		for e := 0; e < len(pairs); e += 2 {
			node, score := pairs[e], math.Float32frombits(uint32(pairs[e+1]))
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
