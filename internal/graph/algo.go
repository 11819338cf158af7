package graph

// WeaklyConnectedComponents labels each node with a component id in
// [0, #components) and returns (labels, componentCount). Ids are assigned
// in order of the lowest node in each component. Web-graph datasets like
// the paper's are dominated by one giant component; the stats command
// reports it.
func (g *Graph) WeaklyConnectedComponents() ([]int32, int) {
	labels := make([]int32, g.n)
	for i := range labels {
		labels[i] = -1
	}
	next := int32(0)
	queue := make([]int32, 0, 256)
	for start := 0; start < g.n; start++ {
		if labels[start] >= 0 {
			continue
		}
		labels[start] = next
		queue = append(queue[:0], int32(start))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.OutNeighbors(int(u)) {
				if labels[v] < 0 {
					labels[v] = next
					queue = append(queue, v)
				}
			}
			for _, v := range g.InNeighbors(int(u)) {
				if labels[v] < 0 {
					labels[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	return labels, int(next)
}

// LargestComponentSize returns the node count of the biggest weakly
// connected component (0 for the empty graph).
func (g *Graph) LargestComponentSize() int {
	labels, count := g.WeaklyConnectedComponents()
	if count == 0 {
		return 0
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for _, s := range sizes {
		if s > best {
			best = s
		}
	}
	return best
}

// StronglyConnectedComponents returns per-node SCC labels and the SCC
// count, using Tarjan's algorithm with an explicit stack (safe for deep
// graphs).
func (g *Graph) StronglyConnectedComponents() ([]int32, int) {
	const unvisited = -1
	n := g.n
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	labels := make([]int32, n)
	for i := range index {
		index[i] = unvisited
		labels[i] = -1
	}
	var (
		counter int32
		sccs    int32
		stack   []int32 // Tarjan stack
	)
	type frame struct {
		v    int32
		edge int
	}
	var call []frame
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		call = append(call[:0], frame{v: int32(root)})
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack[:0], int32(root))
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			adj := g.OutNeighbors(int(f.v))
			if f.edge < len(adj) {
				w := adj[f.edge]
				f.edge++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Post-order: pop the frame.
			v := f.v
			call = call[:len(call)-1]
			if len(call) > 0 && low[v] < low[call[len(call)-1].v] {
				low[call[len(call)-1].v] = low[v]
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					labels[w] = sccs
					if w == v {
						break
					}
				}
				sccs++
			}
		}
	}
	return labels, int(sccs)
}
