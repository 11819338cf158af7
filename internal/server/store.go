package server

import (
	"sync/atomic"

	"cloudwalker/internal/core"
	"cloudwalker/internal/linserve"
)

// Snapshot is one immutable serving state: a compacted graph bound to
// its querier, the generation that graph content corresponds to, and the
// optional linearized engine. Handlers load one snapshot at
// request start and use it throughout, so a hot-swap mid-request is
// invisible: the request finishes on the state it started with, and the
// next request sees the new one.
type Snapshot struct {
	// Gen identifies the graph content (graph.Dynamic's generation
	// counter; 0 for a static server). Cache and singleflight keys are
	// prefixed with it, so entries computed against an older snapshot
	// can never answer a query against a newer one.
	Gen uint64
	// Q answers queries against the snapshot's graph.
	Q *core.Querier
	// Lin is the optional linearized engine (precomputed diagonal +
	// truncated-series evaluation) answering backend=lin queries. A
	// hot-swap drops it, because its diagonal was solved for the old
	// graph: lin requests then answer 503 until Config.RebuildLin flips a
	// new engine in, or 400 on a server without one.
	Lin *linserve.Engine
}

// Store holds the server's current Snapshot behind an atomic pointer and
// is the hot-swap point of the dynamic-graph flow: a background
// compaction builds the next snapshot off to the side, then Swap flips
// queries over to it in one atomic store. In-flight requests keep the
// snapshot pointer they loaded, so nothing is dropped or torn.
type Store struct {
	cur atomic.Pointer[Snapshot]
}

// NewStore returns a Store serving the given initial snapshot.
func NewStore(initial *Snapshot) *Store {
	s := &Store{}
	s.cur.Store(initial)
	return s
}

// Load returns the current snapshot.
func (s *Store) Load() *Snapshot { return s.cur.Load() }

// Swap atomically installs next as the current snapshot and returns the
// previous one (which stays valid for requests still holding it).
func (s *Store) Swap(next *Snapshot) *Snapshot { return s.cur.Swap(next) }

// SetLin attaches a linearized engine to the snapshot currently being
// served, but only if that snapshot is still generation gen and has no
// engine yet. Background lin rebuilds use it to flip their result in
// after an asynchronous diagonal solve: a rebuild overtaken by another
// hot-swap fails the generation check and is discarded, so an engine
// can never be bound to a graph it wasn't solved for. The flip installs
// a COPY of the snapshot (requests hold loaded pointers; mutating a
// published snapshot would race). Reports whether the engine went live.
func (s *Store) SetLin(gen uint64, lin *linserve.Engine) bool {
	for {
		cur := s.cur.Load()
		if cur.Gen != gen || cur.Lin != nil {
			return false
		}
		next := *cur
		next.Lin = lin
		if s.cur.CompareAndSwap(cur, &next) {
			return true
		}
	}
}
