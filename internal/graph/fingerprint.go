package graph

import "sync"

// WeightFingerprint returns a 64-bit content fingerprint of the graph:
// the content hash (HashWords, four lanes a word at a time) over the
// directedness bit, the vertex count and the CSR offset, destination
// and weight arrays. Unlike the (vertices, edges, directed) shape
// triple, it distinguishes two graphs that share a shape but differ in
// wiring or in any edge weight — the stale-read hazard of keying caches
// or warm-start artifacts by shape alone. The hash is computed once per
// graph (the graph is immutable) and cached; zero is never returned, so
// a zero fingerprint marks an artifact that carries none — which the
// checkpoint and bundle codecs reject.
func (g *Graph) WeightFingerprint() uint64 {
	g.fpOnce.Do(func() {
		g.fp = g.ContentHash()
		if g.fp == 0 {
			g.fp = prime1 // reserve 0 for "no fingerprint"
		}
	})
	return g.fp
}

// ContentHash recomputes, on every call, the hash WeightFingerprint
// keeps: no memo and no remap of zero. Benchmarks time it.
func (g *Graph) ContentHash() uint64 {
	return hashCSR(g.directed, g.n, g.outOff, g.outDst, g.outW)
}

// fingerprintState is embedded in Graph: the lazily computed content
// fingerprint. Kept in its own struct so the zero Graph stays valid.
type fingerprintState struct {
	fpOnce sync.Once
	fp     uint64
}
