// Allpairs: the offline MCAP batch job — compute top-k similar nodes for
// every node, persist the result store, and serve lookups from it.
//
// This is the paper's third query type ("all-pair query — return
// similarity between every two nodes") in the form a production system
// ships it: MCAP runs one single-source query per node, so it is a batch
// job whose product — the per-node top-k lists — is what a recommender
// actually serves. Each list is the one cloudwalkerd's /source?node=i&k=5
// returns for node i. The answer is deterministic, so a job split by node
// combines its parts with SimilarityStore.Set.
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

	idx, _, err := cloudwalker.BuildIndex(g, cloudwalker.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	q, err := cloudwalker.NewQuerier(g, idx)
	if err != nil {
		log.Fatal(err)
	}

	// The batch job: top-k for every node.
	start := time.Now()
	results, err := q.AllPairsTopK(topK)
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
}
