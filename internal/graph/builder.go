package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates edges and produces an immutable CSR Graph.
// It is not safe for concurrent use; generators build edge lists in
// parallel and feed them to a single Builder.
type Builder struct {
	n        int
	directed bool
	edges    []Edge
}

// NewBuilder returns a Builder for a graph with n vertices.
// If directed is false, each added edge is stored in both directions.
func NewBuilder(n int, directed bool) *Builder {
	if n <= 0 {
		panic("graph: builder needs at least one vertex")
	}
	if n > 1<<31 {
		panic("graph: vertex count exceeds 32-bit id space")
	}
	return &Builder{n: n, directed: directed}
}

// AddEdge adds a weighted edge. Self-loops are silently dropped (they can
// never participate in a shortest path with non-negative weights). It
// panics on an endpoint out of range and on a weight that is not below
// Infinity, the "unreached" sentinel, so every Builder yields a graph
// ReadBinary would accept.
func (b *Builder) AddEdge(u, v Vertex, w Weight) {
	if int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range for %d vertices", u, v, b.n))
	}
	if w >= Infinity {
		panic(fmt.Sprintf("graph: edge (%d,%d): weight %d is not below Infinity", u, v, w))
	}
	if u == v {
		return
	}
	b.edges = append(b.edges, Edge{From: u, To: v, W: w})
}

// AddEdges adds a batch of edges.
func (b *Builder) AddEdges(edges []Edge) {
	for _, e := range edges {
		b.AddEdge(e.From, e.To, e.W)
	}
}

// Grow reserves capacity for m additional edges.
func (b *Builder) Grow(m int) {
	if cap(b.edges)-len(b.edges) < m {
		next := make([]Edge, len(b.edges), len(b.edges)+m)
		copy(next, b.edges)
		b.edges = next
	}
}

// NumEdgesAdded returns the number of edges added so far (before
// symmetrization and deduplication).
func (b *Builder) NumEdgesAdded() int { return len(b.edges) }

// Build finalizes the graph. Parallel edges are deduplicated keeping the
// minimum weight, which is the only weight that can matter for SSSP.
func (b *Builder) Build() *Graph {
	edges := b.edges
	if !b.directed {
		sym := make([]Edge, 0, 2*len(edges))
		for _, e := range edges {
			sym = append(sym, e, Edge{From: e.To, To: e.From, W: e.W})
		}
		edges = sym
	}
	edges = dedupe(edges)

	g := &Graph{n: b.n, directed: b.directed}
	g.outOff, g.outDst, g.outW = toCSR(b.n, edges)
	g.deriveIn()
	return g
}

// dedupe sorts edges by (From, To) and keeps the minimum weight among
// parallel edges.
func dedupe(edges []Edge) []Edge {
	if len(edges) == 0 {
		return edges
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		return edges[i].W < edges[j].W
	})
	out := edges[:1]
	for _, e := range edges[1:] {
		last := &out[len(out)-1]
		if e.From == last.From && e.To == last.To {
			continue // sorted by weight: the kept one is minimal
		}
		out = append(out, e)
	}
	return out
}

// toCSR converts a deduplicated edge list, sorted by (From, To), into
// offset/target/weight arrays whose per-vertex lists ascend.
func toCSR(n int, edges []Edge) ([]int64, []Vertex, []Weight) {
	off := make([]int64, n+1)
	for _, e := range edges {
		off[e.From+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	dst := make([]Vertex, len(edges))
	w := make([]Weight, len(edges))
	for i, e := range edges {
		dst[i], w[i] = e.To, e.W
	}
	return off, dst, w
}

// deriveIn sets the in-adjacency from the out-CSR: the transpose on a
// directed graph, and the out-CSR itself on an undirected one, where
// every arc has its twin. Build, ApplyMutations and ReadBinary all end
// here, so an in-list is never stored or built any other way.
func (g *Graph) deriveIn() {
	n, off, dst, w := g.n, g.outOff, g.outDst, g.outW
	if !g.directed {
		g.inOff, g.inSrc, g.inW = off, dst, w
		return
	}
	inOff := make([]int64, n+1)
	for _, v := range dst {
		inOff[v+1]++
	}
	for i := 0; i < n; i++ {
		inOff[i+1] += inOff[i]
	}
	inSrc, inW := make([]Vertex, len(dst)), make([]Weight, len(dst))
	// Scattering in ascending source order leaves every in-list sorted
	// by source.
	cursor := make([]int64, n)
	copy(cursor, inOff[:n])
	for u := 0; u < n; u++ {
		for p := off[u]; p < off[u+1]; p++ {
			v := dst[p]
			q := cursor[v]
			cursor[v]++
			inSrc[q], inW[q] = Vertex(u), w[p]
		}
	}
	g.inOff, g.inSrc, g.inW = inOff, inSrc, inW
}

// FromEdges is a convenience constructor building a graph directly from
// an edge list.
func FromEdges(n int, directed bool, edges []Edge) *Graph {
	b := NewBuilder(n, directed)
	b.AddEdges(edges)
	return b.Build()
}
