package graph

// RelabelByDegree returns a copy of g whose vertex ids are assigned in
// order of decreasing out-degree, plus the mapping oldToNew. High-degree
// vertices end up with small, cache-adjacent ids — the vertex-reordering
// preprocessing that GPU SSSP systems apply (Zhang et al., ICPP-W 2023,
// the Wasp paper's [68]) and that CSR-based CPU frameworks also benefit
// from on skewed graphs: hub adjacency lists, the hottest data, become
// contiguous.
//
// Distances are invariant under relabeling: solving on the relabeled
// graph from oldToNew[src] and reading dist[oldToNew[v]] equals solving
// on g from src and reading dist[v].
func RelabelByDegree(g *Graph) (*Graph, []Vertex) {
	n := g.NumVertices()
	// A counting sort on out-degree: start[d] becomes the first new id
	// of degree d, after every vertex of higher degree, and scanning old
	// ids in ascending order breaks ties by old id.
	_, maxDeg := g.MaxOutDegree()
	start := make([]Vertex, maxDeg+1)
	for u := 0; u < n; u++ {
		start[g.OutDegree(Vertex(u))]++
	}
	next := Vertex(0)
	for d := maxDeg; d >= 0; d-- {
		next, start[d] = next+start[d], next
	}
	oldToNew := make([]Vertex, n)
	for u := range oldToNew {
		d := g.OutDegree(Vertex(u))
		oldToNew[u] = start[d]
		start[d]++
	}

	b := NewBuilder(n, g.Directed())
	b.Grow(int(g.NumEdges()))
	for old := 0; old < n; old++ {
		dst, wts := g.OutNeighbors(Vertex(old))
		for i, t := range dst {
			if !g.Directed() && oldToNew[old] > oldToNew[t] {
				continue // undirected: add each edge once
			}
			b.AddEdge(oldToNew[old], oldToNew[t], wts[i])
		}
	}
	return b.Build(), oldToNew
}

// ApplyPermutation remaps a per-vertex array (e.g. distances computed on
// a relabeled graph) back to the original ids: out[v] = in[oldToNew[v]].
func ApplyPermutation(in []uint32, oldToNew []Vertex) []uint32 {
	out := make([]uint32, len(in))
	for old, newID := range oldToNew {
		out[old] = in[newID]
	}
	return out
}
