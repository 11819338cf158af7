package server

import (
	"cloudwalker/internal/core"
	"cloudwalker/internal/linserve"
)

// Snapshot is one immutable serving state: a compacted graph bound to
// its querier, the generation that graph content corresponds to, and the
// optional linearized engine. It is what ReadSnapshot restores from disk
// and what a hot-swap installs. Handlers load one snapshot at request
// start and use it throughout, so a hot-swap mid-request is invisible:
// the request finishes on the state it started with, and the next
// request sees the new one.
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
	// hot-swap installs the next snapshot without one, because its
	// diagonal was solved for the old graph: the server re-solves it in
	// the background, and lin requests answer 503 until setLin flips it
	// in.
	Lin *linserve.Engine
}

// setLin attaches a linearized engine to the snapshot currently being
// served, but only if that snapshot is still generation gen and has no
// engine yet. Background re-solves use it to flip their result in after
// an asynchronous diagonal solve: a re-solve overtaken by another
// hot-swap fails the generation check and is discarded, so an engine can
// never be bound to a graph it wasn't solved for. The flip installs a
// COPY of the snapshot (requests hold loaded pointers; mutating a
// published snapshot would race). Reports whether the engine went live.
func (s *Server) setLin(gen uint64, lin *linserve.Engine) bool {
	for {
		cur := s.snaps.Load()
		if cur.Gen != gen || cur.Lin != nil {
			return false
		}
		next := *cur
		next.Lin = lin
		if s.snaps.CompareAndSwap(cur, &next) {
			return true
		}
	}
}
