package graph

import "fmt"

// validate checks that g's out-CSR meets every invariant the solvers
// assume. ReadBinary runs it on every graph it decodes, before deriving
// the in-adjacency; the other constructors meet the invariants by
// construction (Builder, and through it ReadText, RelabelByDegree and
// the generators, and ApplyMutations). So every Graph satisfies:
//
//   - the offsets start at 0, end at m and never decrease;
//   - each out-list ascends strictly (FindEdge binary-searches it and
//     ApplyMutations merges it) and holds only in-range endpoints other
//     than its own vertex;
//   - every weight is below Infinity, the "unreached" sentinel of all
//     distance arrays (a real edge must stay distinguishable from no
//     path, and SatAdd must not be able to overflow a single hop);
//   - on an undirected graph every arc (u,v,w) has a twin (v,u,w), so
//     the out-CSR can serve as the in-CSR.
//
// A graph meeting them is exactly one Builder can build. The vertex
// count (1 to 2^31) is checked by ReadBinary before any array is read.
func validate(g *Graph) error {
	n, off, dst, w := g.n, g.outOff, g.outDst, g.outW
	m := int64(len(dst))
	if off[0] != 0 || off[n] != m {
		return fmt.Errorf("graph: offsets run from %d to %d for %d arcs", off[0], off[n], m)
	}
	for u := 0; u < n; u++ {
		lo, hi := off[u], off[u+1]
		if hi < lo || hi > m {
			return fmt.Errorf("graph: vertex %d: offsets %d, %d out of order for %d arcs", u, lo, hi, m)
		}
		for p := lo; p < hi; p++ {
			v := dst[p]
			switch {
			case int(v) >= n:
				return fmt.Errorf("graph: arc %d (%d,%d): endpoint out of range for %d vertices", p, u, v, n)
			case v == Vertex(u):
				return fmt.Errorf("graph: arc %d (%d,%d): self-loop", p, u, v)
			case p > lo && v <= dst[p-1]:
				return fmt.Errorf("graph: arc %d (%d,%d): out-list of %d does not ascend strictly (%d after %d)",
					p, u, v, u, v, dst[p-1])
			case w[p] >= Infinity:
				return fmt.Errorf("graph: arc %d (%d,%d): weight %d is not below Infinity (%d)",
					p, u, v, w[p], uint32(Infinity))
			}
		}
	}
	if g.directed {
		return nil
	}
	// Scanning sources in ascending order meets the arcs into each
	// vertex in ascending source order, the order of its own out-list
	// when every arc has its twin, so one cursor per vertex matches
	// every twin in one pass.
	next := make([]int64, n)
	copy(next, off[:n])
	for u := 0; u < n; u++ {
		for p := off[u]; p < off[u+1]; p++ {
			v, q := dst[p], next[dst[p]]
			if q < off[v+1] && dst[q] == Vertex(u) && w[q] == w[p] {
				next[v]++
				continue
			}
			if q < off[v+1] && dst[q] < Vertex(u) {
				// Every source below u is scanned: none had an arc to v.
				return fmt.Errorf("graph: undirected arc (%d,%d,%d) has no twin", v, dst[q], w[q])
			}
			return fmt.Errorf("graph: undirected arc (%d,%d,%d) has no twin", u, v, w[p])
		}
	}
	return nil
}
