// Dynamic graphs: incremental edge updates over a served SimRank index.
//
// The paper's offline/online split freezes the graph at index-build
// time, but real serving workloads (recommendations, web search) have
// edges arriving continuously. Queries still read frozen snapshots only:
// edits wait in a log until a compaction. This example walks the full
// dynamic lifecycle in-process:
//
//  1. build an index on a base graph and answer a query;
//  2. log live edge updates in a DynamicGraph while the index keeps
//     serving the frozen base;
//  3. Compact() the log into a fresh snapshot, rebuild the index, and
//     show the indexed answer move — bit-identical to a from-scratch
//     build of the same edge list.
//
// The served version of this flow is cloudwalkerd -dynamic: POST /edges
// applies updates, POST /refresh compacts + hot-swaps in the background
// while queries keep flowing (see examples/serve and internal/server).
//
// Run with: go run ./examples/dynamic
package main

import (
	"fmt"
	"log"
	"time"

	"cloudwalker"
)

func main() {
	// Base graph: a power-law citation-ish graph, frozen at index time.
	base, err := cloudwalker.GenerateRMAT(2000, 24000, 42)
	if err != nil {
		log.Fatal(err)
	}
	opts := cloudwalker.DefaultOptions()
	opts.RPrime = 2000
	idx, _, err := cloudwalker.BuildIndex(base, opts)
	if err != nil {
		log.Fatal(err)
	}
	q, err := cloudwalker.NewQuerier(base, idx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("base graph: %d nodes / %d edges, index built\n",
		base.NumNodes(), base.NumEdges())

	// Two nodes we will push together by giving them shared citers
	// (SimRank walks backward: similarity comes from common in-links).
	const a, b = 1900, 1901
	before, err := q.SinglePair(a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("s(%d,%d) before updates: %.5f\n", a, b, before)

	// The log accepts live updates while q keeps serving the frozen
	// snapshot (this is exactly what cloudwalkerd does under POST /edges).
	dyn := cloudwalker.NewDynamicGraph(base)
	inserted := 0
	for _, citer := range []int{10, 11, 12, 13, 14, 15} {
		for _, target := range []int{a, b} {
			ok, err := dyn.InsertEdge(citer, target)
			if err != nil {
				log.Fatal(err)
			}
			if ok {
				inserted++
			}
		}
	}
	if _, err := dyn.DeleteEdge(0, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("applied %d inserts + 1 delete: gen=%d pending=%d (dirty: %v)\n",
		inserted, dyn.Gen(), dyn.Pending(), dyn.Dirty())

	// Compact: merge the log into a fresh immutable CSR in parallel,
	// then rebuild the index on it (cloudwalkerd does this in the
	// background and hot-swaps the serving snapshot atomically).
	start := time.Now()
	snapshot, gen := dyn.Compact()
	fmt.Printf("compacted to gen %d in %v: %d nodes / %d edges\n",
		gen, time.Since(start).Round(time.Microsecond),
		snapshot.NumNodes(), snapshot.NumEdges())

	idx2, _, err := cloudwalker.BuildIndex(snapshot, opts)
	if err != nil {
		log.Fatal(err)
	}
	q2, err := cloudwalker.NewQuerier(snapshot, idx2)
	if err != nil {
		log.Fatal(err)
	}
	after, err := q2.SinglePair(a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("s(%d,%d) after compaction + reindex: %.5f (was %.5f)\n", a, b, after, before)

	// Determinism check: a from-scratch build of the same edge list gives
	// the bit-identical estimate — compaction is invisible to answers.
	builder := cloudwalker.NewGraphBuilder(snapshot.NumNodes())
	snapshot.Edges(func(u, v int32) bool {
		if err := builder.AddEdge(int(u), int(v)); err != nil {
			log.Fatal(err)
		}
		return true
	})
	scratch, err := builder.Build()
	if err != nil {
		log.Fatal(err)
	}
	idx3, _, err := cloudwalker.BuildIndex(scratch, opts)
	if err != nil {
		log.Fatal(err)
	}
	q3, err := cloudwalker.NewQuerier(scratch, idx3)
	if err != nil {
		log.Fatal(err)
	}
	oracle, err := q3.SinglePair(a, b)
	if err != nil {
		log.Fatal(err)
	}
	if oracle != after {
		log.Fatalf("compacted estimate %v != from-scratch estimate %v", after, oracle)
	}
	fmt.Printf("from-scratch rebuild agrees bit-for-bit: %.5f == %.5f\n", oracle, after)
}
