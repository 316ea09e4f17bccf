package graph

import (
	"fmt"
	"sort"
)

// Incremental mutation of an immutable CSR graph.
//
// A Graph is immutable by design: every consumer (solver workers, the
// cache, checkpoint validation) keys on its content fingerprint and
// reads its CSR arrays without synchronization. Mutation therefore
// produces a NEW Graph: ApplyMutations merges a sorted batch of edge
// operations into the base out-CSR in one pass and derives the
// in-adjacency as Builder does, yielding a graph that is bit-identical
// to rebuilding from scratch with Builder — same arrays in both
// directions, same WeightFingerprint. That canonical-form
// guarantee is what makes incremental serving sound: applying a batch
// and then its inverse restores the original fingerprint exactly, and
// a cache keyed on fingerprints can never confuse pre- and
// post-mutation results.

// MutationKind selects the operation a Mutation performs on one edge.
type MutationKind uint8

const (
	// MutInsert adds an edge that must not already exist.
	MutInsert MutationKind = iota
	// MutDelete removes an edge that must exist.
	MutDelete
	// MutSetWeight changes the weight of an edge that must exist.
	MutSetWeight
)

// String returns the wire name of the kind (used by the daemon's PATCH
// endpoint and its per-kind metrics).
func (k MutationKind) String() string {
	switch k {
	case MutInsert:
		return "insert"
	case MutDelete:
		return "delete"
	case MutSetWeight:
		return "set-weight"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Mutation is one edge operation. On an undirected graph it applies to
// both stored directions of the edge; (u,v) and (v,u) name the same
// edge and may not both appear in one batch. W is ignored for
// MutDelete.
type Mutation struct {
	Kind     MutationKind
	From, To Vertex
	W        Weight
}

// Delta is the record of one applied mutation batch: the graphs on
// either side plus the per-arc weight changes, split by direction of
// change. Arcs are directed even for undirected graphs (an undirected
// mutation contributes both stored directions), because the repair
// seed reasons about directed relaxations.
//
// Increased holds arcs whose weight grew or that were deleted; W is
// the OLD weight (needed to recognize formerly tight arcs). Decreased
// holds arcs whose weight shrank or that were inserted; W is the NEW
// weight.
type Delta struct {
	Old, New  *Graph
	Increased []Edge
	Decreased []Edge
}

// FindEdge returns the weight of arc (u,v) and whether it exists, by
// binary search over u's sorted out-adjacency.
func (g *Graph) FindEdge(u, v Vertex) (Weight, bool) {
	if int(u) >= g.n || int(v) >= g.n {
		return 0, false
	}
	lo, hi := g.outOff[u], g.outOff[u+1]
	for lo < hi {
		mid := int64(uint64(lo+hi) >> 1)
		if g.outDst[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < g.outOff[u+1] && g.outDst[lo] == v {
		return g.outW[lo], true
	}
	return 0, false
}

// op is a Mutation lowered to a single stored direction.
type op struct {
	from, to Vertex
	kind     MutationKind
	w        Weight
}

// ApplyMutations produces the graph that Builder would construct from
// the base graph's edges with the batch applied, in O(m + b log b)
// instead of O(m log m). Rules, all enforced with errors rather than
// silent repair so callers cannot diverge from the canonical form:
//
//   - vertices must be in range and edges must not be self-loops;
//   - MutInsert requires the edge to be absent, MutDelete and
//     MutSetWeight require it to be present (this makes every batch
//     invertible: swap Insert and Delete, restore old weights);
//   - weights must be below Infinity, the "unreached" sentinel;
//   - at most one mutation per edge per batch (on undirected graphs
//     (u,v) and (v,u) are the same edge).
//
// The vertex count never changes; growing the vertex set is a bundle
// reload, not a mutation. An error leaves the base graph untouched and
// means NO part of the batch was applied.
func ApplyMutations(g *Graph, muts []Mutation) (*Graph, *Delta, error) {
	if len(muts) == 0 {
		return nil, nil, fmt.Errorf("graph: empty mutation batch")
	}
	n := g.n

	// Lower each mutation to stored directions, validating as we go.
	ops := make([]op, 0, 2*len(muts))
	for i, m := range muts {
		if int(m.From) >= n || int(m.To) >= n {
			return nil, nil, fmt.Errorf("graph: mutation %d: edge (%d,%d) out of range for %d vertices", i, m.From, m.To, n)
		}
		if m.From == m.To {
			return nil, nil, fmt.Errorf("graph: mutation %d: self-loop (%d,%d) not allowed", i, m.From, m.To)
		}
		switch m.Kind {
		case MutInsert, MutSetWeight:
			if m.W >= Infinity {
				return nil, nil, fmt.Errorf("graph: mutation %d: weight %d is not below Infinity (%d)", i, m.W, uint32(Infinity))
			}
		case MutDelete:
			// weight ignored
		default:
			return nil, nil, fmt.Errorf("graph: mutation %d: unknown kind %d", i, m.Kind)
		}
		ops = append(ops, op{from: m.From, to: m.To, kind: m.Kind, w: m.W})
		if !g.directed {
			ops = append(ops, op{from: m.To, to: m.From, kind: m.Kind, w: m.W})
		}
	}
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].from != ops[j].from {
			return ops[i].from < ops[j].from
		}
		return ops[i].to < ops[j].to
	})

	// Existence and uniqueness checks before touching any memory the
	// caller can observe.
	deltaEdges := 0 // inserted minus deleted, per stored direction
	for i, o := range ops {
		if i > 0 && ops[i-1].from == o.from && ops[i-1].to == o.to {
			return nil, nil, fmt.Errorf("graph: duplicate mutation for edge (%d,%d) in one batch", o.from, o.to)
		}
		_, exists := g.FindEdge(o.from, o.to)
		switch o.kind {
		case MutInsert:
			if exists {
				return nil, nil, fmt.Errorf("graph: insert (%d,%d): edge already exists (use %s)", o.from, o.to, MutSetWeight)
			}
			deltaEdges++
		case MutDelete, MutSetWeight:
			if !exists {
				return nil, nil, fmt.Errorf("graph: %s (%d,%d): edge does not exist", o.kind, o.from, o.to)
			}
			if o.kind == MutDelete {
				deltaEdges--
			}
		}
	}

	// Merge the sorted op stream into the old out-CSR. Both sides are
	// ordered by (from, to), so the output stays in Builder's canonical
	// order and per-vertex adjacency stays sorted by destination.
	newM := int(g.NumEdges()) + deltaEdges
	ng := &Graph{n: n, directed: g.directed}
	ng.outOff = make([]int64, n+1)
	ng.outDst = make([]Vertex, newM)
	ng.outW = make([]Weight, newM)
	d := &Delta{Old: g, New: ng}

	oi := 0 // next unconsumed op
	cursor := int64(0)
	for u := 0; u < n; u++ {
		lo, hi := g.outOff[u], g.outOff[u+1]
		for p := lo; p < hi || (oi < len(ops) && int(ops[oi].from) == u && ops[oi].kind == MutInsert); {
			// Inserts strictly before the next surviving old edge.
			for oi < len(ops) && int(ops[oi].from) == u && ops[oi].kind == MutInsert &&
				(p >= hi || ops[oi].to < g.outDst[p]) {
				o := ops[oi]
				ng.outDst[cursor] = o.to
				ng.outW[cursor] = o.w
				cursor++
				d.Decreased = append(d.Decreased, Edge{From: o.from, To: o.to, W: o.w})
				oi++
			}
			if p >= hi {
				break
			}
			v, w := g.outDst[p], g.outW[p]
			if oi < len(ops) && int(ops[oi].from) == u && ops[oi].to == v {
				o := ops[oi]
				oi++
				switch o.kind {
				case MutDelete:
					d.Increased = append(d.Increased, Edge{From: o.from, To: v, W: w})
					p++
					continue
				case MutSetWeight:
					ng.outDst[cursor] = v
					ng.outW[cursor] = o.w
					cursor++
					if o.w < w {
						d.Decreased = append(d.Decreased, Edge{From: o.from, To: v, W: o.w})
					} else if o.w > w {
						d.Increased = append(d.Increased, Edge{From: o.from, To: v, W: w})
					}
					p++
					continue
				}
			}
			ng.outDst[cursor] = v
			ng.outW[cursor] = w
			cursor++
			p++
		}
		ng.outOff[u+1] = cursor
	}

	ng.deriveIn()
	return ng, d, nil
}

// RepairSeed turns exact distances from source on the OLD graph into a
// warm-start seed that is a valid upper bound on the NEW graph, the
// contract PrepareWarm demands. It returns the seed, the number of
// vertices invalidated back to Infinity, and an error if prior is not
// shaped like an exact old-graph distance array.
//
// prior MUST be the exact (complete, converged) distance array of a
// solve from source on d.Old. Partial or merely-upper-bound arrays are
// rejected only by the cheap checks here; the exactness contract is the
// caller's.
//
// The decrease side is free: a weight that only shrank keeps every old
// distance a valid upper bound, so the seed is the prior verbatim and
// the repair scan re-relaxes the affected cone. For increases and
// deletes the old label of a vertex may be too SMALL — unsound for
// warm starts — so the seed invalidates a superset of the affected
// vertices: starting from each head v of a formerly tight increased
// arc (prior[u] + oldW == prior[v]), it floods forward over arcs of
// the OLD graph that were tight under prior, and resets everything
// reached to Infinity. Every old shortest path is made of tight arcs,
// so any vertex whose only shortest paths crossed an increased arc is
// reached and invalidated; vertices left alone retain a shortest path
// avoiding all increased arcs, keeping their label a valid bound.
// Over-invalidation (e.g. via a tight non-tree arc) is harmless: an
// Infinity seed entry is always a valid upper bound.
func (d *Delta) RepairSeed(source Vertex, prior []uint32) ([]uint32, int, error) {
	old := d.Old
	if len(prior) != old.NumVertices() {
		return nil, 0, fmt.Errorf("graph: repair seed: %d prior distances for %d vertices", len(prior), old.NumVertices())
	}
	if int(source) >= old.NumVertices() {
		return nil, 0, fmt.Errorf("graph: repair seed: source %d out of range", source)
	}
	if prior[source] != 0 {
		return nil, 0, fmt.Errorf("graph: repair seed: prior[source=%d] = %d, want 0 (prior must be exact distances from the source)", source, prior[source])
	}
	seed := make([]uint32, len(prior))
	copy(seed, prior)
	if len(d.Increased) == 0 {
		return seed, 0, nil
	}

	visited := make([]bool, len(prior))
	var queue []Vertex
	push := func(v Vertex) {
		if !visited[v] {
			visited[v] = true
			queue = append(queue, v)
		}
	}
	for _, e := range d.Increased {
		du, dv := prior[e.From], prior[e.To]
		if du == Infinity || dv == Infinity {
			continue
		}
		if uint64(du)+uint64(e.W) == uint64(dv) {
			push(e.To)
		}
	}
	for len(queue) > 0 {
		x := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		dx := prior[x]
		nbrs, ws := old.OutNeighbors(x)
		for i, t := range nbrs {
			if prior[t] == Infinity || visited[t] {
				continue
			}
			if uint64(dx)+uint64(ws[i]) == uint64(prior[t]) {
				push(t)
			}
		}
	}
	invalidated := 0
	for v, hit := range visited {
		if hit {
			seed[v] = Infinity
			invalidated++
		}
	}
	return seed, invalidated, nil
}
