// Package graph provides the weighted-graph substrate used by every SSSP
// implementation in this repository: a Compressed Sparse Row (CSR)
// representation with 32-bit vertex identifiers and 32-bit non-negative
// integer edge weights, matching the conventions of the GAP Benchmarking
// Suite on which the Wasp paper's codebase is based.
package graph

import (
	"fmt"
	"math"
)

// Vertex is a 32-bit vertex identifier.
type Vertex = uint32

// Weight is a 32-bit non-negative edge weight.
type Weight = uint32

// Infinity is the distance value representing "unreached".
const Infinity = math.MaxUint32

// Edge is a weighted directed edge, used by builders and generators.
type Edge struct {
	From, To Vertex
	W        Weight
}

// Graph is an immutable weighted graph in CSR form. The out-adjacency
// (used by push-style relaxation) is the graph of record; the
// in-adjacency (used by pull-style optimizations) is derived from it.
// For directed graphs it is the out-CSR's transpose. For undirected
// graphs every edge appears in both endpoints' out-lists and the
// in-adjacency aliases the out-adjacency. Every constructor yields a
// graph meeting the invariants validate.go lists.
type Graph struct {
	n int // number of vertices

	outOff []int64  // len n+1
	outDst []Vertex // len m
	outW   []Weight // len m

	inOff []int64
	inSrc []Vertex
	inW   []Weight

	directed bool

	fingerprintState // lazily computed content hash (WeightFingerprint)
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of stored directed edges (for undirected
// graphs every edge is counted twice, as in the paper's Table 1).
func (g *Graph) NumEdges() int64 { return int64(len(g.outDst)) }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u Vertex) int {
	return int(g.outOff[u+1] - g.outOff[u])
}

// InDegree returns the in-degree of u.
func (g *Graph) InDegree(u Vertex) int {
	return int(g.inOff[u+1] - g.inOff[u])
}

// OutNeighbors returns the targets and weights of u's out-edges.
// The returned slices alias the graph's storage and must not be modified.
func (g *Graph) OutNeighbors(u Vertex) ([]Vertex, []Weight) {
	lo, hi := g.outOff[u], g.outOff[u+1]
	return g.outDst[lo:hi], g.outW[lo:hi]
}

// OutNeighborsRange returns the sub-range [begin, end) of u's out-edges,
// used by Wasp's neighborhood decomposition.
func (g *Graph) OutNeighborsRange(u Vertex, begin, end int) ([]Vertex, []Weight) {
	lo := g.outOff[u]
	return g.outDst[lo+int64(begin) : lo+int64(end)], g.outW[lo+int64(begin) : lo+int64(end)]
}

// InNeighbors returns the sources and weights of u's in-edges.
// The returned slices alias the graph's storage and must not be modified.
func (g *Graph) InNeighbors(u Vertex) ([]Vertex, []Weight) {
	lo, hi := g.inOff[u], g.inOff[u+1]
	return g.inSrc[lo:hi], g.inW[lo:hi]
}

// String summarizes the graph.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	return fmt.Sprintf("graph{%s, |V|=%d, |E|=%d}", kind, g.n, g.NumEdges())
}

// MaxOutDegree returns the largest out-degree and a vertex attaining it.
func (g *Graph) MaxOutDegree() (Vertex, int) {
	var best Vertex
	bestDeg := 0
	for u := 0; u < g.n; u++ {
		if d := g.OutDegree(Vertex(u)); d > bestDeg {
			bestDeg = d
			best = Vertex(u)
		}
	}
	return best, bestDeg
}
