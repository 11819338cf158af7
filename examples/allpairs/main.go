// Allpairs: the offline MCAP batch job — compute top-k similar nodes for
// every node, persist the result store, and serve lookups from it.
//
// This is the paper's third query type ("all-pair query — return
// similarity between every two nodes") in the form a production system
// ships it: MCAP is O(n·T²·R'·log d), so it runs as a batch job whose
// product — the per-node top-k lists — is what a recommender actually
// serves. The example also demonstrates shard merging: two half-quality
// stores (half the walkers each) merged into one.
//
// Run with: go run ./examples/allpairs
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"cloudwalker"
)

const (
	nodes = 3000
	edges = 36000
	topK  = 5
)

func main() {
	g, err := cloudwalker.GenerateRMAT(nodes, edges, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	opts := cloudwalker.DefaultOptions()
	opts.RPrime = 1500 // MCAP multiplies query cost by n; budget accordingly
	idx, _, err := cloudwalker.BuildIndex(g, opts)
	if err != nil {
		log.Fatal(err)
	}
	q, err := cloudwalker.NewQuerier(g, idx)
	if err != nil {
		log.Fatal(err)
	}

	// The batch job: top-k for every node.
	start := time.Now()
	results, err := q.AllPairsTopK(topK, cloudwalker.WalkSS)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MCAP: top-%d for all %d nodes in %v\n", topK, nodes, time.Since(start).Round(time.Millisecond))

	store, err := cloudwalker.StoreFromResults(results, topK)
	if err != nil {
		log.Fatal(err)
	}

	// Persist and reload (here through a buffer; a real job writes a file).
	var artifact bytes.Buffer
	if err := store.Save(&artifact); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store artifact: %d bytes (%.1f bytes/node)\n",
		artifact.Len(), float64(artifact.Len())/nodes)
	loaded, err := cloudwalker.LoadSimilarityStore(&artifact)
	if err != nil {
		log.Fatal(err)
	}

	// Serve lookups.
	for _, node := range []int{0, 42, 1234} {
		lst, err := loaded.Get(node)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("node %-5d ->", node)
		for _, nb := range lst {
			fmt.Printf("  %d:%.4f", nb.Node, nb.Score)
		}
		fmt.Println()
	}

	// Shard merging: two independent half-budget runs combined.
	half := opts
	half.RPrime = opts.RPrime / 2
	half.Seed = 101
	shardA := buildShard(g, half)
	half.Seed = 202
	shardB := buildShard(g, half)
	if err := shardA.Merge(shardB); err != nil {
		log.Fatal(err)
	}
	// The merge keeps, per node, the k best-scoring candidates seen by
	// either shard (dedup by node id, max score wins) — how a partitioned
	// MCAP job combines its outputs.
	sample, _ := shardA.Get(42)
	fmt.Printf("merged shards: node 42 ->")
	for _, nb := range sample {
		fmt.Printf("  %d:%.4f", nb.Node, nb.Score)
	}
	fmt.Println()
	fmt.Println("note: MC *scores* are stable across shards; *ranks* among near-tie")
	fmt.Println("scores are not — rank-sensitive consumers should bump R' or use the")
	fmt.Println("deterministic series estimator, PullSS (benchtab -exp ablation compares them).")
}

// buildShard runs MCAP at the given options and wraps the results.
func buildShard(g *cloudwalker.Graph, opts cloudwalker.Options) *cloudwalker.SimilarityStore {
	idx, _, err := cloudwalker.BuildIndex(g, opts)
	if err != nil {
		log.Fatal(err)
	}
	q, err := cloudwalker.NewQuerier(g, idx)
	if err != nil {
		log.Fatal(err)
	}
	res, err := q.AllPairsTopK(topK, cloudwalker.WalkSS)
	if err != nil {
		log.Fatal(err)
	}
	store, err := cloudwalker.StoreFromResults(res, topK)
	if err != nil {
		log.Fatal(err)
	}
	return store
}
