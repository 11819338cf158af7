// Command cloudwalker is the CLI for the CloudWalker SimRank system:
// generate or inspect graphs, build the offline index, and run online
// queries.
//
// Usage:
//
//	cloudwalker gen   -out graph.bin -kind rmat -n 10000 -m 120000 [-seed 1]
//	cloudwalker stats -graph graph.bin
//	cloudwalker index -graph graph.bin -out index.cw [-c 0.6 -T 10 -L 3 -R 100]
//	cloudwalker query -graph graph.bin -index index.cw -mode sp -i 12 -j 97
//	cloudwalker query -graph graph.bin -index index.cw -mode ss -i 12 -k 10
//	cloudwalker query -graph graph.bin -index index.cw -mode ap -k 5
//	cloudwalker exact -graph graph.bin -i 12 -j 97 [-iters 20]
//
// query -mode ss and -mode ap answer each source with the list
// cloudwalkerd's /source?node=i&k=k serves. Graph files ending in
// .txt/.el are read as text edge lists; anything else as the binary
// format.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"cloudwalker"
	"cloudwalker/internal/gen"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:], os.Stdout)
	case "stats":
		err = cmdStats(os.Args[2:], os.Stdout)
	case "index":
		err = cmdIndex(os.Args[2:], os.Stdout)
	case "query":
		err = cmdQuery(os.Args[2:], os.Stdout)
	case "exact":
		err = cmdExact(os.Args[2:], os.Stdout)
	case "resolve":
		err = cmdResolve(os.Args[2:], os.Stdout)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "cloudwalker: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "cloudwalker:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cloudwalker <command> [flags]

commands:
  gen     generate a synthetic graph (rmat, er, ba, copying, or a paper profile)
  stats   print graph statistics
  index   build the offline CloudWalker index (the diagonal D)
  query   run online queries: -mode sp | ss | ap
  resolve re-solve a saved indexing system with different Jacobi sweeps
  exact   compute exact SimRank for validation (small graphs only)`)
}

func saveGraph(path string, g *cloudwalker.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".txt") || strings.HasSuffix(path, ".el") {
		return cloudwalker.SaveEdgeList(f, g)
	}
	return cloudwalker.SaveBinaryGraph(f, g)
}

func cmdGen(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	outPath := fs.String("out", "graph.bin", "output path (.txt/.el for text)")
	kind := fs.String("kind", "rmat", "generator: rmat | er | ba | copying | profile")
	profile := fs.String("profile", "wiki-vote", "paper profile name when -kind profile")
	scale := fs.Float64("scale", 1.0, "profile scale factor")
	n := fs.Int("n", 10000, "nodes")
	m := fs.Int("m", 120000, "edges (rmat/er)")
	k := fs.Int("k", 8, "out-degree (ba/copying)")
	beta := fs.Float64("beta", 0.3, "copying-model mutation rate")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		g   *cloudwalker.Graph
		err error
	)
	switch *kind {
	case "rmat":
		g, err = cloudwalker.GenerateRMAT(*n, *m, *seed)
	case "er":
		g, err = cloudwalker.GenerateER(*n, *m, *seed)
	case "ba":
		g, err = cloudwalker.GenerateBA(*n, *k, *seed)
	case "copying":
		g, err = cloudwalker.GenerateCopying(*n, *k, *beta, *seed)
	case "profile":
		p, perr := gen.ProfileByName(*profile)
		if perr != nil {
			return perr
		}
		if *scale != 1.0 {
			p = p.Scaled(*scale)
		}
		g, err = p.Generate()
	default:
		return fmt.Errorf("unknown generator %q", *kind)
	}
	if err != nil {
		return err
	}
	if err := saveGraph(*outPath, g); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: %d nodes, %d edges\n", *outPath, g.NumNodes(), g.NumEdges())
	return nil
}

func cmdStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	path := fs.String("graph", "", "graph file")
	components := fs.Bool("components", false, "also compute connected-component structure")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("stats: -graph is required")
	}
	g, err := cloudwalker.LoadGraphFile(*path)
	if err != nil {
		return err
	}
	st := g.ComputeStats()
	fmt.Fprintf(out, "nodes:          %d\n", st.Nodes)
	fmt.Fprintf(out, "edges:          %d\n", st.Edges)
	fmt.Fprintf(out, "avg degree:     %.2f\n", st.AvgDegree)
	fmt.Fprintf(out, "max in-degree:  %d\n", st.MaxInDegree)
	fmt.Fprintf(out, "max out-degree: %d\n", st.MaxOutDegree)
	fmt.Fprintf(out, "no in-links:    %d\n", st.DanglingIn)
	fmt.Fprintf(out, "no out-links:   %d\n", st.DanglingOut)
	fmt.Fprintf(out, "self loops:     %d\n", st.SelfLoops)
	fmt.Fprintf(out, "memory:         %d bytes\n", g.MemoryBytes())
	if *components {
		_, wcc := g.WeaklyConnectedComponents()
		_, scc := g.StronglyConnectedComponents()
		fmt.Fprintf(out, "weak components:   %d (largest %d nodes)\n", wcc, g.LargestComponentSize())
		fmt.Fprintf(out, "strong components: %d\n", scc)
	}
	return nil
}

// optionFlags registers the CloudWalker parameter flags.
func optionFlags(fs *flag.FlagSet) *cloudwalker.Options {
	opts := cloudwalker.DefaultOptions()
	fs.Float64Var(&opts.C, "c", opts.C, "SimRank decay factor")
	fs.IntVar(&opts.T, "T", opts.T, "walk steps")
	fs.IntVar(&opts.L, "L", opts.L, "Jacobi sweeps")
	fs.IntVar(&opts.R, "R", opts.R, "indexing walkers per node")
	fs.IntVar(&opts.RPrime, "Rq", opts.RPrime, "query walkers (R')")
	fs.IntVar(&opts.Workers, "workers", opts.Workers, "worker goroutines (0 = all cores)")
	fs.Uint64Var(&opts.Seed, "seed", opts.Seed, "random seed")
	return &opts
}

func cmdIndex(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	path := fs.String("graph", "", "graph file")
	outPath := fs.String("out", "index.cw", "output index path")
	dumpSystem := fs.String("dump-system", "", "also save the Monte Carlo system to this path")
	opts := optionFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("index: -graph is required")
	}
	g, err := cloudwalker.LoadGraphFile(*path)
	if err != nil {
		return err
	}
	start := time.Now()
	system, err := cloudwalker.BuildSystem(g, *opts)
	if err != nil {
		return err
	}
	idx, rep, err := cloudwalker.SolveIndex(g, system, *opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if *dumpSystem != "" {
		sf, err := os.Create(*dumpSystem)
		if err != nil {
			return err
		}
		if err := cloudwalker.SaveSystem(sf, system); err != nil {
			sf.Close()
			return err
		}
		if err := sf.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "saved system (%d nnz) to %s\n", system.NNZ(), *dumpSystem)
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := cloudwalker.SaveIndex(f, idx); err != nil {
		return err
	}
	fmt.Fprintf(out, "indexed %d nodes in %v (system nnz %d, %d bytes)\n", rep.Rows, elapsed.Round(time.Millisecond), rep.SystemNNZ, rep.SystemBytes)
	printSolve(out, rep)
	fmt.Fprintf(out, "wrote %s\n", *outPath)
	return nil
}

// printSolve prints the Jacobi residual history and how many rows the
// solver skipped for a zero diagonal (their index entry is 0, not a
// solution; anything but 0 means the system was not fully estimated).
func printSolve(out io.Writer, rep *cloudwalker.IndexReport) {
	for i, r := range rep.JacobiResiduals {
		fmt.Fprintf(out, "  jacobi sweep %d residual %.3g\n", i+1, r)
	}
	fmt.Fprintf(out, "  rows skipped (zero diagonal) %d\n", rep.SkippedRows)
}

func cmdQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	gpath := fs.String("graph", "", "graph file")
	ipath := fs.String("index", "", "index file")
	mode := fs.String("mode", "sp", "query mode: sp | ss | ap")
	i := fs.Int("i", 0, "first node")
	j := fs.Int("j", 1, "second node (sp)")
	k := fs.Int("k", 10, "top-k results (ss/ap)")
	save := fs.String("save", "", "save all-pair results to this store file (ap mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gpath == "" || *ipath == "" {
		return fmt.Errorf("query: -graph and -index are required")
	}
	g, err := cloudwalker.LoadGraphFile(*gpath)
	if err != nil {
		return err
	}
	f, err := os.Open(*ipath)
	if err != nil {
		return err
	}
	idx, err := cloudwalker.LoadIndex(f)
	f.Close()
	if err != nil {
		return err
	}
	q, err := cloudwalker.NewQuerier(g, idx)
	if err != nil {
		return err
	}
	switch *mode {
	case "sp":
		start := time.Now()
		s, err := q.SinglePair(*i, *j)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "s(%d,%d) = %.6f   (%v)\n", *i, *j, s, time.Since(start).Round(time.Microsecond))
	case "ss":
		start := time.Now()
		var v cloudwalker.Vector
		if err := q.ServedSourceInto(context.Background(), *i, &v); err != nil {
			return err
		}
		top := cloudwalker.TopKNeighbors(&v, *i, *k)
		fmt.Fprintf(out, "top-%d similar to node %d (%v):\n", *k, *i, time.Since(start).Round(time.Microsecond))
		for rank, nb := range top {
			fmt.Fprintf(out, "  %2d. node %-8d s = %.6f\n", rank+1, nb.Node, nb.Score)
		}
	case "ap":
		start := time.Now()
		res, err := q.AllPairsTopK(*k)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "all-pair top-%d for %d nodes in %v; sample:\n",
			*k, len(res), time.Since(start).Round(time.Millisecond))
		limit := 5
		if len(res) < limit {
			limit = len(res)
		}
		for node := 0; node < limit; node++ {
			var parts []string
			for _, nb := range res[node] {
				parts = append(parts, fmt.Sprintf("%d:%.4f", nb.Node, nb.Score))
			}
			fmt.Fprintf(out, "  node %d -> %s\n", node, strings.Join(parts, " "))
		}
		if *save != "" {
			store, err := cloudwalker.StoreFromResults(res, *k)
			if err != nil {
				return err
			}
			sf, err := os.Create(*save)
			if err != nil {
				return err
			}
			defer sf.Close()
			if err := store.Save(sf); err != nil {
				return err
			}
			fmt.Fprintf(out, "saved all-pair store to %s\n", *save)
		}
	default:
		return fmt.Errorf("unknown query mode %q", *mode)
	}
	return nil
}

func cmdExact(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("exact", flag.ExitOnError)
	path := fs.String("graph", "", "graph file")
	c := fs.Float64("c", 0.6, "decay factor")
	iters := fs.Int("iters", 20, "power iterations")
	i := fs.Int("i", 0, "first node")
	j := fs.Int("j", -1, "second node (-1: print top similar to i)")
	k := fs.Int("k", 10, "top-k when -j is -1")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("exact: -graph is required")
	}
	g, err := cloudwalker.LoadGraphFile(*path)
	if err != nil {
		return err
	}
	if g.NumNodes() > 20000 {
		return fmt.Errorf("exact: graph has %d nodes; exact SimRank is O(n²) memory, refusing above 20k", g.NumNodes())
	}
	s, err := cloudwalker.ExactSimRank(g, *c, *iters)
	if err != nil {
		return err
	}
	if *j >= 0 {
		fmt.Fprintf(out, "exact s(%d,%d) = %.6f\n", *i, *j, s.At(*i, *j))
		return nil
	}
	row := s.Row(*i)
	type nv struct {
		node  int
		score float64
	}
	var all []nv
	for node, sc := range row {
		if node != *i && sc > 0 {
			all = append(all, nv{node, sc})
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].score > all[b].score })
	if len(all) > *k {
		all = all[:*k]
	}
	fmt.Fprintf(out, "exact top-%d similar to node %d:\n", *k, *i)
	for rank, e := range all {
		fmt.Fprintf(out, "  %2d. node %-8d s = %.6f\n", rank+1, e.node, e.score)
	}
	return nil
}

// cmdResolve re-runs the Jacobi stage on a persisted Monte Carlo system,
// skipping the expensive walking stage (hours at the paper's scale).
func cmdResolve(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("resolve", flag.ExitOnError)
	gpath := fs.String("graph", "", "graph file")
	spath := fs.String("system", "", "system file from 'index -dump-system'")
	outPath := fs.String("out", "index.cw", "output index path")
	opts := optionFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gpath == "" || *spath == "" {
		return fmt.Errorf("resolve: -graph and -system are required")
	}
	g, err := cloudwalker.LoadGraphFile(*gpath)
	if err != nil {
		return err
	}
	sf, err := os.Open(*spath)
	if err != nil {
		return err
	}
	system, err := cloudwalker.LoadSystem(sf)
	sf.Close()
	if err != nil {
		return err
	}
	start := time.Now()
	idx, rep, err := cloudwalker.SolveIndex(g, system, *opts)
	if err != nil {
		return err
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := cloudwalker.SaveIndex(f, idx); err != nil {
		return err
	}
	fmt.Fprintf(out, "re-solved %d rows in %v (no re-walking)\n", rep.Rows, time.Since(start).Round(time.Millisecond))
	printSolve(out, rep)
	fmt.Fprintf(out, "wrote %s\n", *outPath)
	return nil
}
