package gen

import (
	"fmt"
	"sort"

	"cloudwalker/internal/graph"
)

// Profile describes one of the paper's evaluation datasets and how this
// repository synthesizes a stand-in for it. PaperNodes/PaperEdges are the
// sizes reported in the paper's dataset table; Nodes/Edges are the default
// synthetic sizes used by the benchmark harness (scaled down so the whole
// experiment matrix runs on one machine).
type Profile struct {
	Name       string
	PaperNodes int64
	PaperEdges int64
	Nodes      int
	Edges      int
	Seed       uint64
}

// Profiles mirrors the paper's dataset table. wiki-vote runs at full size;
// the larger graphs are scaled keeping their average degree (the quantity
// that drives walk and join costs).
var Profiles = []Profile{
	{Name: "wiki-vote", PaperNodes: 7_100, PaperEdges: 103_000, Nodes: 7_100, Edges: 103_000, Seed: 1001},
	{Name: "wiki-talk", PaperNodes: 2_400_000, PaperEdges: 5_000_000, Nodes: 24_000, Edges: 50_000, Seed: 1002},
	{Name: "twitter-2010", PaperNodes: 42_000_000, PaperEdges: 1_500_000_000, Nodes: 42_000, Edges: 1_500_000, Seed: 1003},
	{Name: "uk-union", PaperNodes: 131_000_000, PaperEdges: 5_500_000_000, Nodes: 131_000, Edges: 5_500_000, Seed: 1004},
	{Name: "clue-web", PaperNodes: 1_000_000_000, PaperEdges: 42_600_000_000, Nodes: 200_000, Edges: 8_500_000, Seed: 1005},
}

// ProfileByName returns the profile with the given name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, nil
		}
	}
	names := make([]string, len(Profiles))
	for i, p := range Profiles {
		names[i] = p.Name
	}
	sort.Strings(names)
	return Profile{}, fmt.Errorf("gen: unknown profile %q (have %v)", name, names)
}

// Scaled returns a copy of the profile with node and edge counts multiplied
// by f (minimum 16 nodes, 16 edges), for scalability sweeps.
func (p Profile) Scaled(f float64) Profile {
	q := p
	q.Nodes = max(16, int(float64(p.Nodes)*f))
	q.Edges = max(16, int(float64(p.Edges)*f))
	return q
}

// Generate synthesizes the profile's graph with R-MAT (power-law in/out
// degrees, like the paper's web and social graphs).
func (p Profile) Generate() (*graph.Graph, error) {
	return RMAT(p.Nodes, p.Edges, DefaultRMAT, p.Seed)
}

// AvgDegree returns the profile's synthetic average degree.
func (p Profile) AvgDegree() float64 {
	if p.Nodes == 0 {
		return 0
	}
	return float64(p.Edges) / float64(p.Nodes)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
