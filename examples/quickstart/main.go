// Quickstart: build a CloudWalker index on a small synthetic graph and run
// the paper's three query types (single-pair, single-source, all-pair).
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"cloudwalker"
)

func main() {
	// A power-law web-ish graph: 2000 pages, ~24000 links.
	g, err := cloudwalker.GenerateRMAT(2000, 24000, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	// Offline: estimate the SimRank correction diagonal D. Options follow
	// the paper (c=0.6, T=10, L=3, R=100, R'=10000).
	start := time.Now()
	idx, report, err := cloudwalker.BuildIndex(g, cloudwalker.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline index: %v (system nnz %d in %d bytes, final Jacobi residual %.3g)\n",
		time.Since(start).Round(time.Millisecond),
		report.SystemNNZ, report.SystemBytes,
		report.JacobiResiduals[len(report.JacobiResiduals)-1])

	q, err := cloudwalker.NewQuerier(g, idx)
	if err != nil {
		log.Fatal(err)
	}

	// Online query 1: single pair.
	start = time.Now()
	s, err := q.SinglePair(10, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single-pair  s(10,11) = %.6f       [%v]\n", s, time.Since(start).Round(time.Microsecond))

	// Online query 2: single source (all similarities to node 10),
	// truncated to what cloudwalkerd's /source?node=10&k=3 returns.
	start = time.Now()
	var v cloudwalker.Vector
	if err := q.ServedSourceInto(context.Background(), 10, &v); err != nil {
		log.Fatal(err)
	}
	top := cloudwalker.TopKNeighbors(&v, 10, 3)
	fmt.Printf("single-source top-3 of node 10:      [%v]\n", time.Since(start).Round(time.Microsecond))
	for rank, nb := range top {
		fmt.Printf("  %d. node %-6d s = %.6f\n", rank+1, nb.Node, nb.Score)
	}

	// Online query 3: all-pair (top-k per node, each list the /source
	// answer), printed here for the first nodes.
	start = time.Now()
	res, err := q.AllPairsTopK(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("all-pair top-3 for all %d nodes:     [%v]\n", len(res), time.Since(start).Round(time.Millisecond))
	for node := 0; node < 3; node++ {
		fmt.Printf("  node %d:", node)
		for _, nb := range res[node] {
			fmt.Printf("  %d:%.4f", nb.Node, nb.Score)
		}
		fmt.Println()
	}
}
