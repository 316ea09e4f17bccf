package graph

import "sync"

// fnv-1a 64-bit parameters (FNV is stable across platforms and has no
// dependencies; this is an identity fingerprint, not a security hash).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// WeightFingerprint returns a 64-bit content fingerprint of the graph:
// an FNV-1a hash over the CSR offset, destination and weight arrays
// (plus the directedness bit). Unlike the (vertices, edges, directed)
// shape triple, it distinguishes two graphs that share a shape but
// differ in wiring or in any edge weight — the stale-read hazard of
// keying caches or warm-start artifacts by shape alone. The hash is
// computed once per graph (the graph is immutable) and cached; zero is
// never returned, so a zero fingerprint marks an artifact that carries
// none — which the checkpoint and bundle codecs reject.
func (g *Graph) WeightFingerprint() uint64 {
	g.fpOnce.Do(func() {
		h := uint64(fnvOffset64)
		mix32 := func(v uint32) {
			h ^= uint64(v & 0xff)
			h *= fnvPrime64
			h ^= uint64((v >> 8) & 0xff)
			h *= fnvPrime64
			h ^= uint64((v >> 16) & 0xff)
			h *= fnvPrime64
			h ^= uint64(v >> 24)
			h *= fnvPrime64
		}
		if g.directed {
			mix32(1)
		} else {
			mix32(0)
		}
		mix32(uint32(g.n))
		for _, off := range g.outOff {
			mix32(uint32(off))
			mix32(uint32(off >> 32))
		}
		for _, v := range g.outDst {
			mix32(v)
		}
		for _, w := range g.outW {
			mix32(w)
		}
		if h == 0 {
			h = fnvOffset64 // reserve 0 for "no fingerprint"
		}
		g.fp = h
	})
	return g.fp
}

// fingerprintState is embedded in Graph: the lazily computed content
// fingerprint. Kept in its own struct so the zero Graph stays valid.
type fingerprintState struct {
	fpOnce sync.Once
	fp     uint64
}
