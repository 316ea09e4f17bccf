package core

import (
	"wasp/internal/dist"
	"wasp/internal/graph"
)

// The three optimizations of paper §4.4, ablated in Figure 7:
// neighborhood decomposition (ND), bidirectional relaxation (BR); leaf
// pruning (LP) is a push-time filter over a precomputed bitmap, applied
// where vertices are pushed (processNeighborhood, relaxBidirectional).

// decompose splits a high-degree vertex's neighborhood into θ-sized
// ranges (paper §4.4 "Neighborhood Decomposition"). The ranges beyond
// the first are published as single-vertex range chunks — into the
// current bucket's deque when they belong to the current level, where
// thieves can pick them up while this worker processes the first range.
func (w *worker) decompose(u uint32, prio uint64, deg int) {
	theta := w.opt.Theta
	for begin := theta; begin < deg; begin += theta {
		end := begin + theta
		if end > deg {
			end = deg
		}
		c := w.pool.Get()
		c.SetRange(u, uint32(begin), uint32(end), prio)
		if prio == w.currLoc {
			w.expose(c)
		} else {
			w.pushLocalChunk(c)
		}
	}
	w.processNeighborhood(u, 0, uint32(theta))
}

// relaxBidirectional implements bidirectional relaxation (paper §4.4)
// for u's full neighborhood on an undirected graph, restricted to at
// most 8 weighted vertices — one L1 cache line, per the paper — so the
// pull adds no extra misses. One pass over the neighbors loads their
// distances once, pulls the best candidate through them into u, and
// pushes u's fresh distance out against the loaded values. An
// undirected graph's in-adjacency is its out-adjacency, so the
// out-neighbors are the pull's sources too. A neighbor whose loaded
// distance is already at most the candidate is skipped without a CAS:
// distances only fall, so the CAS could not win. A CAS that loses to a
// concurrent lowering of v retries against the fresh d[v] (RelaxTo); a
// concurrent lowering of d[u] queues u again, so the candidate needs
// no refresh.
func (w *worker) relaxBidirectional(u uint32) {
	dst, wts := w.g.OutNeighbors(graph.Vertex(u))
	var dn [8]uint32
	best := uint32(graph.Infinity)
	for i, v := range dst {
		dn[i] = w.d.Get(v)
		best = min(best, dist.SatAdd(dn[i], wts[i]))
	}
	w.d.RelaxTo(graph.Vertex(u), best)
	du := w.d.Get(graph.Vertex(u))
	w.m.Relaxations += int64(len(dst))
	for i, v := range dst {
		nd := dist.SatAdd(du, wts[i])
		if nd >= dn[i] || !w.d.RelaxTo(v, nd) {
			continue
		}
		w.m.Improvements++
		if w.leaves != nil && w.leaves.Get(int(v)) {
			continue // leaf pruning: v can never improve anyone (§4.4)
		}
		w.pushVertex(uint32(v), prioOf(nd, w.delta))
	}
}
