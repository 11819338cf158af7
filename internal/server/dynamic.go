// Dynamic-graph serving: incremental edge updates and the background
// compaction/hot-swap flow.
//
// Lifecycle: a server built with Config.Dynamic owns a graph.Dynamic
// edit log over its initial graph, at Config.InitialGen. POST /edges
// records insert/delete edits in it (concurrent with queries, which keep
// running against the current immutable snapshot; nothing reads the
// pending edits). Once enough edits accumulate — Config.RefreshAfter, or
// an explicit POST /refresh — a background goroutine compacts the log
// into a fresh CSR, rebuilds the index on it with the serving index's
// options, and flips queries to the new snapshot in one atomic store. A
// server given a lin engine then re-solves its diagonal for the new graph
// in the background, with the options of the engine it was serving.
// In-flight requests finish on the snapshot they loaded; cache entries are
// generation-keyed, so a stale-generation entry can never answer a
// new-generation query.

package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"cloudwalker/internal/core"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/linserve"
)

// edgesRequest is the POST /edges body: edge lists to insert and delete,
// applied in that order. Node ids beyond the current node count grow the
// graph (visible to queries after the next refresh).
type edgesRequest struct {
	Insert [][2]int `json:"insert"`
	Delete [][2]int `json:"delete"`
}

// edgesResponse reports what was applied. Inserted/Deleted count the
// deltas that changed the graph (duplicate inserts and absent deletes
// are no-ops). Gen is the edit generation after this request; Pending
// the updates not yet compacted; RefreshStarted whether this request
// tripped the auto-refresh threshold.
type edgesResponse struct {
	Inserted       int    `json:"inserted"`
	Deleted        int    `json:"deleted"`
	Gen            uint64 `json:"gen"`
	Pending        int    `json:"pending"`
	Nodes          int    `json:"nodes"`
	RefreshStarted bool   `json:"refresh_started"`
}

// maxEdgesBody bounds a POST /edges body (the fleet router forwards at
// most this much too).
const maxEdgesBody = 16 << 20

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request, body []byte) {
	if s.dyn == nil {
		WriteError(w, http.StatusServiceUnavailable, "dynamic updates disabled (start the daemon with -dynamic)")
		return
	}
	var req edgesRequest
	if err := json.Unmarshal(body, &req); err != nil {
		WriteError(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	if len(req.Insert) == 0 && len(req.Delete) == 0 {
		WriteError(w, http.StatusBadRequest, "empty update: need insert and/or delete edge lists")
		return
	}
	// Pre-validate the whole batch so a 400 never mutates the graph: a
	// client told "request failed" must be able to retry the batch
	// verbatim without double-applying a prefix.
	for _, e := range req.Insert {
		if err := graph.CheckEdge(e[0], e[1]); err != nil {
			WriteError(w, http.StatusBadRequest, "insert [%d,%d]: %v", e[0], e[1], err)
			return
		}
	}
	for _, e := range req.Delete {
		if err := graph.CheckEdge(e[0], e[1]); err != nil {
			WriteError(w, http.StatusBadRequest, "delete [%d,%d]: %v", e[0], e[1], err)
			return
		}
	}
	var resp edgesResponse
	for _, e := range req.Insert {
		ok, err := s.dyn.InsertEdge(e[0], e[1])
		if err != nil {
			// Unreachable after pre-validation; a 500 here means the
			// validation and mutation paths diverged.
			WriteError(w, http.StatusInternalServerError, "insert [%d,%d]: %v", e[0], e[1], err)
			return
		}
		if ok {
			resp.Inserted++
		}
	}
	for _, e := range req.Delete {
		ok, err := s.dyn.DeleteEdge(e[0], e[1])
		if err != nil {
			WriteError(w, http.StatusInternalServerError, "delete [%d,%d]: %v", e[0], e[1], err)
			return
		}
		if ok {
			resp.Deleted++
		}
	}
	s.updates.Add(uint64(resp.Inserted + resp.Deleted))
	resp.Gen = s.dyn.Gen()
	resp.Pending = s.dyn.Pending()
	resp.Nodes = s.dyn.NumNodes()
	if s.refreshAfter > 0 && resp.Pending >= s.refreshAfter {
		resp.RefreshStarted = s.startRefresh()
	}
	WriteJSON(w, resp)
}

// refreshResponse is the POST /refresh reply. Without ?wait=1 it only
// reports whether a background refresh was started (Started=false means
// one was already running, or nothing is pending). With ?wait=1 the
// request blocks until the compaction/hot-swap completes and reports the
// newly served snapshot.
type refreshResponse struct {
	Started bool   `json:"started"`
	Swapped bool   `json:"swapped,omitempty"`
	Gen     uint64 `json:"gen"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
}

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request, _ []byte) {
	if s.dyn == nil {
		WriteError(w, http.StatusServiceUnavailable, "dynamic updates disabled (start the daemon with -dynamic)")
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		swapped, err := s.refresh()
		if err != nil {
			WriteError(w, http.StatusInternalServerError, "refresh: %v", err)
			return
		}
		snap := s.snaps.Load()
		WriteJSON(w, refreshResponse{
			Started: true,
			Swapped: swapped,
			Gen:     snap.Gen,
			Nodes:   snap.Q.Graph().NumNodes(),
			Edges:   snap.Q.Graph().NumEdges(),
		})
		return
	}
	started := s.startRefresh()
	snap := s.snaps.Load()
	WriteJSON(w, refreshResponse{
		Started: started,
		Gen:     snap.Gen,
		Nodes:   snap.Q.Graph().NumNodes(),
		Edges:   snap.Q.Graph().NumEdges(),
	})
}

// startRefresh launches a background compaction/hot-swap unless one is
// already running. It reports whether this call started one.
func (s *Server) startRefresh() bool {
	select {
	case s.refreshMu <- struct{}{}:
	default:
		return false // refresh already in flight
	}
	go func() {
		defer func() { <-s.refreshMu }()
		// Errors here have no request to report to; they surface through
		// /stats (swap count not advancing) and the daemon's log on the
		// next explicit ?wait=1 refresh. Keep serving the old snapshot.
		_, _ = s.refreshLocked()
	}()
	return true
}

// refresh runs a compaction/hot-swap synchronously, waiting for any
// in-flight background refresh to finish first. It reports whether a
// swap actually happened (false = nothing was pending).
func (s *Server) refresh() (bool, error) {
	s.refreshMu <- struct{}{}
	defer func() { <-s.refreshMu }()
	return s.refreshLocked()
}

// refreshLocked does the actual compact → reindex → swap sequence. The
// caller holds the refresh semaphore.
func (s *Server) refreshLocked() (bool, error) {
	if !s.dyn.Dirty() {
		return false, nil
	}
	g, gen := s.dyn.Compact()
	idx, _, err := core.BuildIndex(g, s.snaps.Load().Q.Index().Opts)
	if err != nil {
		return false, fmt.Errorf("reindex: %w", err)
	}
	q, err := core.NewQuerier(g, idx)
	if err != nil {
		return false, fmt.Errorf("reindex: %w", err)
	}
	// A lin engine is precomputed for one graph: the new snapshot goes
	// live without one, and solveLin re-provisions it off the serving
	// path. linSolving is set before the swap so /healthz never sees the
	// engine missing with no re-solve in flight.
	if s.linOpts != nil {
		s.linSolving.Store(gen)
	}
	s.snaps.Store(&Snapshot{Gen: gen, Q: q})
	if s.cache != nil {
		s.cache.clear()
	}
	s.swaps.Inc()
	if s.linOpts != nil {
		go s.solveLin(gen, g)
	}
	return true, nil
}

// solveLin re-solves the lin engine for generation gen's graph and flips
// it in with setLin, which discards it if another swap has overtaken gen.
// The refresh semaphore is released before this ends, so re-solves of
// successive swaps can overlap: each clears linSolving only if it is
// still the newest. A failed solve has no request to report to; it
// surfaces as lin_rebuilding returning to false with "lin" still missing
// from /healthz backends.
func (s *Server) solveLin(gen uint64, g *graph.Graph) {
	defer s.linSolving.CompareAndSwap(gen, 0)
	if s.testRebuildHook != nil {
		s.testRebuildHook(gen)
	}
	if eng, err := linserve.Build(g, *s.linOpts); err == nil {
		s.setLin(gen, eng)
	}
}
