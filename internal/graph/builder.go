package graph

import (
	"fmt"
	"slices"
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

// Build finalizes the graph. Parallel edges are deduplicated keeping the
// minimum weight, which is the only weight that can matter for SSSP.
// Build does not modify the added edges.
//
// It makes the CSR the way GAP does, in O(n + m + Σ d_u log d_u) time:
// count each source's arcs into the offsets, scatter every arc (both
// directions of an undirected edge) into its source's segment, then sort
// each segment by (target, weight) and keep the first arc of each run of
// equal targets. The result is the same as sorting the whole arc list by
// (source, target, weight) and keeping the first arc of each
// (source, target) run.
func (b *Builder) Build() *Graph {
	n := b.n
	off := make([]int64, n+1)
	for _, e := range b.edges {
		off[e.From+1]++
		if !b.directed {
			off[e.To+1]++
		}
	}
	maxSeg := int64(0)
	for u := 0; u < n; u++ {
		maxSeg = max(maxSeg, off[u+1])
		off[u+1] += off[u]
	}
	m := off[n]
	dst, w := make([]Vertex, m), make([]Weight, m)
	// off[u] serves as u's write cursor, so afterwards it holds the end
	// of u's segment; shifting the offsets up by one restores the starts.
	put := func(u, v Vertex, wt Weight) {
		p := off[u]
		off[u]++
		dst[p], w[p] = v, wt
	}
	for _, e := range b.edges {
		put(e.From, e.To, e.W)
		if !b.directed {
			put(e.To, e.From, e.W)
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0

	keys := make([]uint64, 0, maxSeg) // sortArcs' scratch, sized once for the longest segment
	k, lo := int64(0), int64(0)
	for u := 0; u < n; u++ {
		hi := off[u+1]
		sortArcs(dst[lo:hi], w[lo:hi], keys)
		off[u] = k
		for p := lo; p < hi; p++ {
			if k > off[u] && dst[k-1] == dst[p] {
				continue // sorted by weight: the kept arc is minimal
			}
			dst[k], w[k] = dst[p], w[p]
			k++
		}
		lo = hi
	}
	off[n] = k
	dst, w = dst[:k], w[:k]
	if k < m {
		// Parallel arcs folded. Copy the kept arcs into arrays of exact
		// size, or the graph would hold the folded slots for its lifetime.
		exactDst, exactW := make([]Vertex, k), make([]Weight, k)
		copy(exactDst, dst)
		copy(exactW, w)
		dst, w = exactDst, exactW
	}

	g := &Graph{n: n, directed: b.directed, outOff: off, outDst: dst, outW: w}
	g.deriveIn()
	return g
}

// sortArcs sorts one segment's arcs by (target, weight): it packs them
// into keys, as uint64(target)<<32 | weight, sorts those with
// slices.Sort and unpacks them.
func sortArcs(dst []Vertex, w []Weight, keys []uint64) {
	keys = keys[:0]
	for i, v := range dst {
		keys = append(keys, uint64(v)<<32|uint64(w[i]))
	}
	slices.Sort(keys)
	for i, key := range keys {
		dst[i], w[i] = Vertex(key>>32), Weight(key)
	}
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
	b.Grow(len(edges))
	b.AddEdges(edges)
	return b.Build()
}
