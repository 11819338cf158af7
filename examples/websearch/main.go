// Websearch: "related pages" on a web-scale-shaped graph — the
// information-retrieval use case from the paper's introduction, using the
// single-source query (MCSS) that powers a related-pages backend.
//
// The example generates an R-MAT graph with the degree skew of a web
// crawl, builds the index, and compares the two single-source estimators
// (the paper's pure Monte Carlo walk and PullSS, the deterministic
// linearized series over the same index diagonal) on latency and
// agreement.
//
// Run with: go run ./examples/websearch
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"cloudwalker"
)

func main() {
	// wiki-vote-sized web graph: 7100 pages, ~103k hyperlinks.
	g, err := cloudwalker.GenerateRMAT(7100, 103000, 2015)
	if err != nil {
		log.Fatal(err)
	}
	st := g.ComputeStats()
	fmt.Printf("web graph: %d pages, %d links, max in-degree %d (hub skew x%.0f)\n",
		st.Nodes, st.Edges, st.MaxInDegree, float64(st.MaxInDegree)/st.AvgDegree)

	opts := cloudwalker.DefaultOptions()
	start := time.Now()
	idx, _, err := cloudwalker.BuildIndex(g, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline index built in %v\n\n", time.Since(start).Round(time.Millisecond))

	q, err := cloudwalker.NewQuerier(g, idx)
	if err != nil {
		log.Fatal(err)
	}

	const page = 4242
	// Paper estimator: pure Monte Carlo, O(T²R') — constant in graph size.
	start = time.Now()
	walk, err := q.SingleSource(page, cloudwalker.WalkSS)
	if err != nil {
		log.Fatal(err)
	}
	walkTime := time.Since(start)

	// Series estimator: exact sparse matvecs over the index's diagonal.
	start = time.Now()
	pull, err := q.SingleSource(page, cloudwalker.PullSS)
	if err != nil {
		log.Fatal(err)
	}
	pullTime := time.Since(start)

	walkScores := walk.Dense(g.NumNodes())
	pullScores := pull.Dense(g.NumNodes())
	top := cloudwalker.TopK(pullScores, 10, page)
	fmt.Printf("related pages for page %d:\n", page)
	fmt.Printf("  %-8s  %-10s  %-10s\n", "page", "pull est.", "walk est.")
	for _, p := range top {
		fmt.Printf("  %-8d  %-10.6f  %-10.6f\n", p, pullScores[p], walkScores[p])
	}

	// Agreement between the two estimators.
	var maxDiff float64
	for i := range walkScores {
		if d := math.Abs(walkScores[i] - pullScores[i]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("\nestimators: walk %v, pull %v, max disagreement %.4f\n",
		walkTime.Round(time.Microsecond), pullTime.Round(time.Microsecond), maxDiff)
	fmt.Println("(the walk estimator is the paper's O(T²R') one; pull, the series,")
	fmt.Println(" trades graph-size independence for no sampling noise)")
}
