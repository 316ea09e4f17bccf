package wasp

import (
	"wasp/internal/graph"
)

// Incremental SSSP on mutating graphs.
//
// ApplyMutations evolves an immutable graph by one mutation batch: it
// returns a brand-new immutable graph plus a MutationDelta describing
// exactly which arcs got cheaper or more expensive. The delta is the
// bridge to incremental solving: combined with exact distances from
// before the batch, MutationDelta.Seed yields a warm-start checkpoint
// for the post-mutation graph, which Session.Resume, Pool.Resume and
// Registry.Resume feed to the PrepareWarm repair scan instead of
// solving from scratch. Registry.Mutate is the serving-side verb built
// on the same two calls.
//
// Soundness rests on two invariants, both enforced here rather than
// trusted:
//
//  1. Mutated graphs advance the content fingerprint. ApplyMutations
//     rebuilds a canonical CSR, so the mutated graph's
//     WeightFingerprint differs whenever any weight differs — the
//     cache, checkpoint validation, and the auditor all key on it, so
//     a pre-mutation result can never be served for a post-mutation
//     graph (or vice versa), and a repair seed handed to a solver of
//     the wrong graph is rejected by Resume.
//  2. Repair seeds are valid upper bounds. Decreased arcs keep every
//     old distance an upper bound; increased or deleted arcs trigger
//     cone invalidation (MutationDelta.Seed) that resets every vertex
//     whose old shortest paths might have crossed an affected arc back
//     to Infinity before the repair solve runs.

// MutationKind selects the operation a Mutation performs on one edge.
type MutationKind = graph.MutationKind

// Mutation kinds: insert a new edge, delete an existing edge, change
// an existing edge's weight.
const (
	MutInsert    = graph.MutInsert
	MutDelete    = graph.MutDelete
	MutSetWeight = graph.MutSetWeight
)

// Mutation is one edge operation in a batch. On undirected graphs it
// applies to both stored directions; W is ignored for MutDelete.
type Mutation = graph.Mutation

// MutationDelta records one applied batch: the pre- and post-mutation
// graphs plus the arc-level weight changes needed to repair prior
// solves. Obtain one from ApplyMutations or Registry.Mutate.
type MutationDelta struct {
	delta *graph.Delta
}

// ApplyMutations applies a batch to g and returns the mutated graph
// with its delta. g is never modified; an error means no part of the
// batch was applied. Batches must be well-formed: inserts target
// absent edges, deletes and re-weights target present edges, one
// mutation per edge per batch, no self-loops, weights below Infinity.
func ApplyMutations(g *Graph, batch []Mutation) (*Graph, *MutationDelta, error) {
	ng, d, err := graph.ApplyMutations(g, batch)
	if err != nil {
		return nil, nil, err
	}
	return ng, &MutationDelta{delta: d}, nil
}

// Graph returns the post-mutation graph.
func (d *MutationDelta) Graph() *Graph { return d.delta.New }

// Increased returns the number of arcs that got more expensive
// (including deleted arcs). Zero means the batch was decrease-only and
// repair seeds are the prior distances verbatim.
func (d *MutationDelta) Increased() int { return len(d.delta.Increased) }

// Decreased returns the number of arcs that got cheaper (including
// inserted arcs).
func (d *MutationDelta) Decreased() int { return len(d.delta.Decreased) }

// Seed turns exact pre-mutation distances from source into a
// warm-start checkpoint for the post-mutation graph. prior MUST be the
// complete, exact distance array of a finished solve from source on
// the pre-mutation graph — a cached complete result qualifies; a
// mid-run snapshot or a mere upper bound does NOT, because cone
// invalidation decides which vertices to reset by testing arc
// tightness against prior, and that test is only meaningful for exact
// labels.
//
// The checkpoint is stamped with the post-mutation graph's shape and
// weight fingerprint, so Resume accepts it for the new graph and
// rejects it anywhere else: Resume(ctx, delta.Seed(source, prior)) is
// the incremental solve.
func (d *MutationDelta) Seed(source Vertex, prior []uint32) (*Checkpoint, error) {
	seed, _, err := d.delta.RepairSeed(source, prior)
	if err != nil {
		return nil, err
	}
	return stamp(d.delta.New, uint32(source), seed), nil
}

// Invalidated returns how many vertices a Seed call from source over
// prior would reset to Infinity — the size of the repair frontier's
// cone. Useful for deciding between incremental repair and a fresh
// solve without committing to either.
func (d *MutationDelta) Invalidated(source Vertex, prior []uint32) (int, error) {
	_, n, err := d.delta.RepairSeed(source, prior)
	return n, err
}
