// Package cloudwalker is a Go implementation of CloudWalker, the parallel
// SimRank system of "Walking in the Cloud: Parallel SimRank at Scale"
// (Li, Fang, Liu, Cheng, Cheng, Lui; SoCC'15 / PVLDB'16).
//
// SimRank scores two graph nodes as similar when they are referenced by
// similar nodes. CloudWalker makes SimRank practical at scale by
// decomposing the similarity matrix as S = c·PᵀSP + D, estimating the
// diagonal correction D offline with embarrassingly parallel Monte Carlo
// random walks plus a parallel Jacobi solve, and answering online queries
// in time independent of graph size.
//
// Quick start:
//
//	g, _ := cloudwalker.GenerateRMAT(10000, 120000, 1)
//	idx, _, _ := cloudwalker.BuildIndex(g, cloudwalker.DefaultOptions())
//	q, _ := cloudwalker.NewQuerier(g, idx)
//	s, _ := q.SinglePair(12, 97)                         // one similarity
//	var v cloudwalker.Vector
//	_ = q.ServedSourceInto(context.Background(), 12, &v) // all similarities to 12
//	top := cloudwalker.TopKNeighbors(&v, 12, 10)         // what /source?node=12&k=10 serves
//	all, _ := q.AllPairsTopK(10)                         // that list for every node
//
// The package also ships the paper's two cluster execution models on a
// simulated cluster (NewBroadcastEngine, NewRDDEngine), the baselines it
// compares against (FMT in internal/baseline/fingerprint; LIN is the
// linearized engine, BuildLinEngine), and a benchmark harness that
// regenerates every table and figure of the evaluation (cmd/benchtab).
package cloudwalker

import (
	"fmt"
	"io"
	"os"
	"strings"

	"cloudwalker/internal/core"
	"cloudwalker/internal/exact"
	"cloudwalker/internal/fleet"
	"cloudwalker/internal/gen"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/linserve"
	"cloudwalker/internal/server"
	"cloudwalker/internal/simstore"
	"cloudwalker/internal/sparse"
	"cloudwalker/internal/walk"
)

// Graph is an immutable directed graph in CSR form (both directions).
type Graph = graph.Graph

// GraphBuilder accumulates edges for a Graph.
type GraphBuilder = graph.Builder

// DynamicGraph is a log of edge insertions and deletions over an
// immutable Graph. Nothing reads the pending edits; Compact() merges them
// into a fresh immutable snapshot in parallel. Its generation counter
// identifies graph content, which is what the serving tier keys its
// result cache by.
type DynamicGraph = graph.Dynamic

// GraphStats summarizes a graph's degree structure.
type GraphStats = graph.Stats

// Options carries CloudWalker's parameters (c, T, L, R, R').
type Options = core.Options

// Index is the offline artifact: the estimated SimRank correction diagonal.
type Index = core.Index

// IndexReport describes an offline build (system sparsity, Jacobi
// residuals).
type IndexReport = core.IndexReport

// Querier answers online SimRank queries against an Index.
type Querier = core.Querier

// Neighbor is one entry of a top-k similarity list.
type Neighbor = core.Neighbor

// SingleSourceMode selects the MCSS phase-two estimator.
type SingleSourceMode = core.SingleSourceMode

// Vector is a sparse vector of per-node scores returned by single-source
// queries.
type Vector = sparse.Vector

const (
	// WalkSS is the paper's pure Monte Carlo single-source estimator.
	// Neither the serving tier's /source nor Querier.AllPairsTopK runs
	// it: both answer with Querier.ServedSourceInto, the series below
	// pruned at 1e-3.
	WalkSS = core.WalkSS
	// PullSS evaluates the linearized series over the index's diagonal
	// instead of walking: an exact forward pass, then one backward
	// Horner pass, on the linearized engine's kernels (deterministic).
	PullSS = core.PullSS
)

// DefaultOptions returns the paper's parameter table:
// c=0.6, T=10, L=3, R=100, R'=10000.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewGraph builds a graph with n nodes from an edge list.
func NewGraph(n int, edges [][2]int) (*Graph, error) {
	return graph.FromEdges(n, edges)
}

// NewGraphBuilder returns a builder for incremental graph construction.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// NewDynamicGraph starts an edit log over base (nil = empty) at
// generation 0. See cmd/cloudwalkerd's -dynamic mode for the end-to-end
// serving flow.
func NewDynamicGraph(base *Graph) *DynamicGraph { return graph.NewDynamic(base, 0) }

// LoadEdgeList reads a SNAP-style text edge list ("src dst" per line,
// '#'/'%' comments).
func LoadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r, 0) }

// LoadGraphFile reads a graph file: a text edge list when the name ends
// in .txt or .el, the compact binary format otherwise.
func LoadGraphFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cloudwalker: %w", err)
	}
	defer f.Close()
	if strings.HasSuffix(path, ".txt") || strings.HasSuffix(path, ".el") {
		return LoadEdgeList(f)
	}
	return LoadBinaryGraph(f)
}

// SaveEdgeList writes the graph as a text edge list.
func SaveEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// LoadBinaryGraph reads the compact binary graph format.
func LoadBinaryGraph(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// SaveBinaryGraph writes the compact binary graph format.
func SaveBinaryGraph(w io.Writer, g *Graph) error { return graph.WriteBinary(w, g) }

// GenerateER samples a directed Erdős–Rényi G(n, m) graph.
func GenerateER(n, m int, seed uint64) (*Graph, error) { return gen.ErdosRenyi(n, m, seed) }

// GenerateRMAT samples a power-law R-MAT graph with n nodes and ~m edges,
// the degree structure of the paper's web and social datasets.
func GenerateRMAT(n, m int, seed uint64) (*Graph, error) {
	return gen.RMAT(n, m, gen.DefaultRMAT, seed)
}

// GenerateBA grows a Barabási–Albert preferential-attachment graph.
func GenerateBA(n, k int, seed uint64) (*Graph, error) { return gen.BarabasiAlbert(n, k, seed) }

// GenerateCopying grows a copying-model citation/recommendation graph.
func GenerateCopying(n, k int, beta float64, seed uint64) (*Graph, error) {
	return gen.Copying(n, k, beta, seed)
}

// BuildIndex runs CloudWalker's offline stage: Monte Carlo estimation of
// the indexing system's rows in parallel, then L parallel Jacobi sweeps.
func BuildIndex(g *Graph, opts Options) (*Index, *IndexReport, error) {
	return core.BuildIndex(g, opts)
}

// NewQuerier binds an index to its graph for online queries.
func NewQuerier(g *Graph, idx *Index) (*Querier, error) { return core.NewQuerier(g, idx) }

// SaveIndex serializes an index.
func SaveIndex(w io.Writer, idx *Index) error { return idx.Save(w) }

// LoadIndex deserializes an index written by SaveIndex.
func LoadIndex(r io.Reader) (*Index, error) { return core.ReadIndex(r) }

// IndexingSystem is the Monte Carlo linear system A (one row per node)
// whose solution is the index diagonal, as BuildSystem estimates it: each
// row held as the integer deposits its walkers counted, one machine word
// apiece, valued as floats only while the solver multiplies them. At the
// paper's scale the Monte Carlo stage costs hours while the Jacobi solve
// costs seconds, so the system can be persisted and re-solved (e.g. with
// more sweeps) without re-walking.
type IndexingSystem = walk.RowSystem

// SystemMatrix is an indexing system as a float matrix: what SaveSystem
// writes and LoadSystem returns.
type SystemMatrix = sparse.Matrix

// System is what SolveIndex accepts: an *IndexingSystem or a
// *SystemMatrix.
type System = core.System

// BuildSystem runs only the Monte Carlo stage and returns the system A.
func BuildSystem(g *Graph, opts Options) (*IndexingSystem, error) {
	return core.BuildSystem(g, opts)
}

// SolveIndex runs only the Jacobi stage on a prebuilt system.
func SolveIndex(g *Graph, a System, opts Options) (*Index, *IndexReport, error) {
	return core.SolveIndex(g, a, opts)
}

// SaveSystem serializes an indexing system, materialising its float
// matrix for the write.
func SaveSystem(w io.Writer, a *IndexingSystem) error { return sparse.WriteMatrix(w, a.Matrix()) }

// LoadSystem deserializes a system written by SaveSystem.
func LoadSystem(r io.Reader) (*SystemMatrix, error) { return sparse.ReadMatrix(r) }

// LinEngine is the linearized serving backend: it evaluates the
// truncated series S ≈ Σ_t c^t (Pᵀ)^t D P^t deterministically against a
// precomputed diagonal (no walks at query time). SinglePairCtx and
// SingleSourceInto take a prune threshold per call; SinglePair and
// SingleSource answer at the engine's LinOptions.PruneEps, as backend=lin
// does. Wire one into ServerConfig.Lin to enable backend=lin.
type LinEngine = linserve.Engine

// LinOptions tunes a LinEngine build (series depth, Jacobi sweeps,
// pruning thresholds).
type LinOptions = linserve.Options

// LinBuildReport describes a LinEngine build (solver residual, sweeps,
// timings).
type LinBuildReport = linserve.BuildReport

// DefaultLinOptions returns the linearized backend's default parameters
// (matching DefaultOptions where they overlap: c=0.6, T=10).
func DefaultLinOptions() LinOptions { return linserve.DefaultOptions() }

// BuildLinEngine precomputes the linearized backend for g: exact sparse
// expansion of the indexing system plus a Jacobi solve for the diagonal.
func BuildLinEngine(g *Graph, opts LinOptions) (*LinEngine, error) {
	return linserve.Build(g, opts)
}

// SaveLinEngine serializes an engine (the CWLN section also rides inside
// serving snapshots automatically).
func SaveLinEngine(w io.Writer, e *LinEngine) error { return e.Save(w) }

// LoadLinEngine deserializes an engine written by SaveLinEngine, binding
// it against g (which must be the graph it was built for).
func LoadLinEngine(r io.Reader, g *Graph) (*LinEngine, error) { return linserve.Load(r, g) }

// SimilarityStore persists all-pair (MCAP) top-k results.
type SimilarityStore = simstore.Store

// StoreFromResults wraps the output of Querier.AllPairsTopK in a store.
func StoreFromResults(results [][]Neighbor, k int) (*SimilarityStore, error) {
	return simstore.FromResults(results, k)
}

// LoadSimilarityStore reads a store written by SimilarityStore.Save.
func LoadSimilarityStore(r io.Reader) (*SimilarityStore, error) { return simstore.Load(r) }

// Server is the online HTTP/JSON serving tier: /pair, /pairs, /source,
// /healthz, /stats, with a sharded result cache, request
// coalescing, and 429 load shedding (see cmd/cloudwalkerd for the
// daemon).
type Server = server.Server

// ServerConfig tunes the serving tier (cache size, admission limit,
// batch limit, optional linearized engine, dynamic updates).
type ServerConfig = server.Config

// ServerStats is the /stats payload (cache hit rate, shed count,
// per-endpoint latency quantiles).
type ServerStats = server.Stats

// NewServer builds the serving tier around a Querier.
func NewServer(q *Querier, cfg ServerConfig) (*Server, error) { return server.New(q, cfg) }

// ServingSnapshot is one serving state: a querier over the graph and its
// index (with build options), the optional linearized engine, and the
// generation it was serving. ReadServingSnapshot restores one from disk —
// everything a restarted daemon needs to answer bit-identically without
// re-walking.
type ServingSnapshot = server.Snapshot

// ReadServingSnapshot loads and checksum-verifies the snapshot persisted
// under dir by POST /snapshot (cloudwalkerd -snapshot).
func ReadServingSnapshot(dir string) (*ServingSnapshot, error) { return server.ReadSnapshot(dir) }

// ServingSnapshotPath returns the snapshot file path under dir.
func ServingSnapshotPath(dir string) string { return server.SnapshotPath(dir) }

// FleetRouter is the multi-process serving frontend: it consistent-hashes
// every query to the one shard daemon that owns it, fails over across
// replicas, and keeps a generation floor so no client sees the graph move
// backwards during a rolling refresh (see cmd/cloudwalkerd -router).
type FleetRouter = fleet.Router

// FleetConfig tunes a FleetRouter: the shard list, the retry budget and
// an optional fixed hedge delay. The attempt timeout (5 s), multi-pass
// failover (3 passes) and the health probe period (500 ms) are fixed. A
// shard's one liveness state is its up bit, cleared by a failed query
// attempt or probe and set by a valid reply or a live probe.
type FleetConfig = fleet.Config

// FleetStats is the router's /stats payload.
type FleetStats = fleet.Stats

// NewFleetRouter builds a fleet router over the given shards and starts
// its health prober; Close stops the prober.
func NewFleetRouter(cfg FleetConfig) (*FleetRouter, error) { return fleet.New(cfg) }

// CanonicalPair orders a pair query so both orders of a symmetric
// SimRank pair share one cache entry and one bit-identical estimate.
func CanonicalPair(i, j int) (int, int) { return core.CanonicalPair(i, j) }

// TopKNeighbors truncates a sparse single-source result to its k
// highest-scoring entries, excluding self (negative self keeps all).
func TopKNeighbors(v *Vector, self, k int) []Neighbor { return core.TopKNeighbors(v, self, k) }

// DirectSinglePair estimates s(i,j) with the classic index-free
// first-meeting Monte Carlo method (no offline stage; single pairs only).
func DirectSinglePair(g *Graph, i, j int, c float64, T, R int, seed uint64) (float64, error) {
	return core.DirectSinglePair(g, i, j, c, T, R, seed)
}

// ExactSimRank computes ground-truth Jeh–Widom SimRank by power iteration.
// Dense O(n²) memory: validation and small graphs only.
func ExactSimRank(g *Graph, c float64, iterations int) (*exact.Dense, error) {
	return exact.Naive(g, c, iterations)
}

// TopK returns the indices of the k largest scores, excluding `exclude`
// (-1 keeps all).
func TopK(scores []float64, k, exclude int) []int { return exact.TopK(scores, k, exclude) }
