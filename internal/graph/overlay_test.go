package graph

import (
	"math/rand"
	"testing"
)

// randMutable builds a random graph plus its edge list (one direction
// per logical edge) for mutation testing.
func randMutable(r *rand.Rand, n int, directed bool, density float64) (*Graph, []Edge) {
	var edges []Edge
	seen := map[[2]Vertex]bool{}
	has := func(u, v Vertex) bool {
		if directed {
			return seen[[2]Vertex{u, v}]
		}
		return seen[[2]Vertex{u, v}] || seen[[2]Vertex{v, u}]
	}
	target := int(density * float64(n))
	for len(edges) < target {
		u := Vertex(r.Intn(n))
		v := Vertex(r.Intn(n))
		if u == v || has(u, v) {
			continue
		}
		seen[[2]Vertex{u, v}] = true
		edges = append(edges, Edge{From: u, To: v, W: 1 + uint32(r.Intn(50))})
	}
	return FromEdges(n, directed, edges), edges
}

// randBatch derives a valid mutation batch against g from the current
// edge list, returning the batch and the updated edge list.
func randBatch(r *rand.Rand, g *Graph, edges []Edge, size int) ([]Mutation, []Edge) {
	n := g.NumVertices()
	var batch []Mutation
	touched := map[[2]Vertex]bool{}
	touch := func(u, v Vertex) bool {
		if touched[[2]Vertex{u, v}] || touched[[2]Vertex{v, u}] {
			return false
		}
		touched[[2]Vertex{u, v}] = true
		return true
	}
	for len(batch) < size {
		switch r.Intn(3) {
		case 0: // insert a fresh edge
			u := Vertex(r.Intn(n))
			v := Vertex(r.Intn(n))
			if u == v || !touch(u, v) {
				continue
			}
			if _, ok := g.FindEdge(u, v); ok {
				continue
			}
			if !g.Directed() {
				if _, ok := g.FindEdge(v, u); ok {
					continue
				}
			}
			w := 1 + uint32(r.Intn(50))
			batch = append(batch, Mutation{Kind: MutInsert, From: u, To: v, W: w})
			edges = append(edges, Edge{From: u, To: v, W: w})
		case 1: // delete an existing edge
			if len(edges) == 0 {
				continue
			}
			i := r.Intn(len(edges))
			e := edges[i]
			if !touch(e.From, e.To) {
				continue
			}
			batch = append(batch, Mutation{Kind: MutDelete, From: e.From, To: e.To})
			edges = append(edges[:i], edges[i+1:]...)
		default: // reweight an existing edge
			if len(edges) == 0 {
				continue
			}
			i := r.Intn(len(edges))
			e := edges[i]
			if !touch(e.From, e.To) {
				continue
			}
			w := 1 + uint32(r.Intn(50))
			batch = append(batch, Mutation{Kind: MutSetWeight, From: e.From, To: e.To, W: w})
			edges[i].W = w
		}
	}
	return batch, edges
}

// TestApplyMutationsCanonical: the merged rebuild must be bit-identical
// to Builder's from-scratch construction — same fingerprint, valid CSR,
// the same out- and in-list at every vertex — across random graphs,
// batches, and both directedness modes.
func TestApplyMutationsCanonical(t *testing.T) {
	for _, directed := range []bool{false, true} {
		r := rand.New(rand.NewSource(7))
		for trial := 0; trial < 20; trial++ {
			n := 16 + r.Intn(64)
			g, edges := randMutable(r, n, directed, 2.0)
			for round := 0; round < 4; round++ {
				var batch []Mutation
				batch, edges = randBatch(r, g, edges, 1+r.Intn(6))
				ng, delta, err := ApplyMutations(g, batch)
				if err != nil {
					t.Fatalf("directed=%v trial=%d round=%d: %v", directed, trial, round, err)
				}
				if err := validate(ng); err != nil {
					t.Fatalf("mutated graph invalid: %v", err)
				}
				want := FromEdges(n, directed, edges)
				if ng.WeightFingerprint() != want.WeightFingerprint() {
					t.Fatalf("directed=%v trial=%d round=%d: merged rebuild fingerprint %x != builder %x",
						directed, trial, round, ng.WeightFingerprint(), want.WeightFingerprint())
				}
				assertGraphsEqual(t, ng, want)
				if ng.NumEdges() != want.NumEdges() {
					t.Fatalf("edge count %d != %d", ng.NumEdges(), want.NumEdges())
				}
				if delta.Old != g || delta.New != ng {
					t.Fatal("delta does not record the old/new graph pair")
				}
				g = ng
			}
		}
	}
}

// TestApplyMutationsInverse: a batch followed by its inverse restores
// the original graph exactly, fingerprint included.
func TestApplyMutationsInverse(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, directed := range []bool{false, true} {
		g, edges := randMutable(r, 48, directed, 2.5)
		orig := g.WeightFingerprint()
		batch, _ := randBatch(r, g, append([]Edge(nil), edges...), 8)

		// Build the inverse before applying: insert<->delete, and
		// set-weight restores the pre-batch weight.
		inverse := make([]Mutation, 0, len(batch))
		for _, m := range batch {
			switch m.Kind {
			case MutInsert:
				inverse = append(inverse, Mutation{Kind: MutDelete, From: m.From, To: m.To})
			case MutDelete:
				w, ok := g.FindEdge(m.From, m.To)
				if !ok {
					t.Fatalf("delete target (%d,%d) missing", m.From, m.To)
				}
				inverse = append(inverse, Mutation{Kind: MutInsert, From: m.From, To: m.To, W: w})
			case MutSetWeight:
				w, ok := g.FindEdge(m.From, m.To)
				if !ok {
					t.Fatalf("set-weight target (%d,%d) missing", m.From, m.To)
				}
				inverse = append(inverse, Mutation{Kind: MutSetWeight, From: m.From, To: m.To, W: w})
			}
		}

		mid, _, err := ApplyMutations(g, batch)
		if err != nil {
			t.Fatal(err)
		}
		back, _, err := ApplyMutations(mid, inverse)
		if err != nil {
			t.Fatal(err)
		}
		if back.WeightFingerprint() != orig {
			t.Fatalf("directed=%v: batch+inverse fingerprint %x != original %x", directed, back.WeightFingerprint(), orig)
		}
	}
}

// TestApplyMutationsErrors: every malformed batch is rejected whole.
func TestApplyMutationsErrors(t *testing.T) {
	g := FromEdges(4, true, []Edge{{From: 0, To: 1, W: 5}, {From: 1, To: 2, W: 3}})
	cases := []struct {
		name  string
		batch []Mutation
	}{
		{"empty", nil},
		{"out-of-range", []Mutation{{Kind: MutInsert, From: 0, To: 9, W: 1}}},
		{"self-loop", []Mutation{{Kind: MutInsert, From: 2, To: 2, W: 1}}},
		{"insert-exists", []Mutation{{Kind: MutInsert, From: 0, To: 1, W: 1}}},
		{"delete-missing", []Mutation{{Kind: MutDelete, From: 0, To: 3}}},
		{"set-weight-missing", []Mutation{{Kind: MutSetWeight, From: 0, To: 3, W: 1}}},
		{"weight-infinity", []Mutation{{Kind: MutSetWeight, From: 0, To: 1, W: Infinity}}},
		{"duplicate-edge", []Mutation{
			{Kind: MutSetWeight, From: 0, To: 1, W: 2},
			{Kind: MutDelete, From: 0, To: 1},
		}},
		{"unknown-kind", []Mutation{{Kind: MutationKind(9), From: 0, To: 1}}},
	}
	for _, tc := range cases {
		if _, _, err := ApplyMutations(g, tc.batch); err == nil {
			t.Errorf("%s: batch accepted, want error", tc.name)
		}
	}

	// Undirected: (u,v) and (v,u) are the same edge.
	ug := FromEdges(4, false, []Edge{{From: 0, To: 1, W: 5}})
	if _, _, err := ApplyMutations(ug, []Mutation{
		{Kind: MutSetWeight, From: 0, To: 1, W: 2},
		{Kind: MutSetWeight, From: 1, To: 0, W: 3},
	}); err == nil {
		t.Error("undirected duplicate via reversed endpoints accepted, want error")
	}
	if _, _, err := ApplyMutations(ug, []Mutation{{Kind: MutDelete, From: 1, To: 0}}); err != nil {
		t.Errorf("undirected delete via reversed endpoints rejected: %v", err)
	}
}

// TestFindEdge: binary-search probe against both present and absent
// arcs, in both stored directions of an undirected graph.
func TestFindEdge(t *testing.T) {
	g := FromEdges(5, false, []Edge{
		{From: 0, To: 1, W: 4}, {From: 0, To: 3, W: 7}, {From: 2, To: 3, W: 1},
	})
	if w, ok := g.FindEdge(0, 3); !ok || w != 7 {
		t.Fatalf("FindEdge(0,3) = %d,%v want 7,true", w, ok)
	}
	if w, ok := g.FindEdge(3, 0); !ok || w != 7 {
		t.Fatalf("FindEdge(3,0) = %d,%v want 7,true (undirected)", w, ok)
	}
	if _, ok := g.FindEdge(0, 2); ok {
		t.Fatal("FindEdge(0,2) = true, want false")
	}
	if _, ok := g.FindEdge(0, 99); ok {
		t.Fatal("out-of-range lookup must report absent")
	}
}

// TestRepairSeedDecreaseOnly: pure-decrease batches keep the prior
// verbatim — nothing is invalidated.
func TestRepairSeedDecreaseOnly(t *testing.T) {
	g := FromEdges(4, true, []Edge{{From: 0, To: 1, W: 5}, {From: 1, To: 2, W: 5}})
	prior := []uint32{0, 5, 10, Infinity}
	_, delta, err := ApplyMutations(g, []Mutation{
		{Kind: MutSetWeight, From: 0, To: 1, W: 2},
		{Kind: MutInsert, From: 0, To: 2, W: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	seed, invalidated, err := delta.RepairSeed(0, prior)
	if err != nil {
		t.Fatal(err)
	}
	if invalidated != 0 {
		t.Fatalf("decrease-only batch invalidated %d vertices, want 0", invalidated)
	}
	for i, d := range seed {
		if d != prior[i] {
			t.Fatalf("seed[%d] = %d, want prior %d", i, d, prior[i])
		}
	}
}

// TestRepairSeedInvalidatesCone: deleting a tree edge must reset the
// whole downstream cone of tight arcs, and only that cone.
func TestRepairSeedInvalidatesCone(t *testing.T) {
	// 0 -> 1 -> 2 -> 3, plus a slack arc 0 -> 4 (weight 100) so vertex 4
	// is NOT downstream of the deleted edge via tight arcs.
	g := FromEdges(5, true, []Edge{
		{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 1},
		{From: 2, To: 3, W: 1}, {From: 0, To: 4, W: 100},
	})
	prior := []uint32{0, 1, 2, 3, 100}
	_, delta, err := ApplyMutations(g, []Mutation{{Kind: MutDelete, From: 1, To: 2}})
	if err != nil {
		t.Fatal(err)
	}
	seed, invalidated, err := delta.RepairSeed(0, prior)
	if err != nil {
		t.Fatal(err)
	}
	if invalidated != 2 {
		t.Fatalf("invalidated %d vertices, want 2 (the cone {2,3})", invalidated)
	}
	want := []uint32{0, 1, Infinity, Infinity, 100}
	for i, d := range seed {
		if d != want[i] {
			t.Fatalf("seed[%d] = %d, want %d", i, d, want[i])
		}
	}

	// Deleting the slack arc's twin scenario: removing a non-tight arc
	// invalidates nothing.
	g2 := FromEdges(3, true, []Edge{
		{From: 0, To: 1, W: 1}, {From: 0, To: 2, W: 9}, {From: 1, To: 2, W: 1},
	})
	prior2 := []uint32{0, 1, 2}
	_, delta2, err := ApplyMutations(g2, []Mutation{{Kind: MutDelete, From: 0, To: 2}})
	if err != nil {
		t.Fatal(err)
	}
	_, invalidated2, err := delta2.RepairSeed(0, prior2)
	if err != nil {
		t.Fatal(err)
	}
	if invalidated2 != 0 {
		t.Fatalf("deleting a non-tight arc invalidated %d vertices, want 0", invalidated2)
	}
}

// TestRepairSeedRejectsMalformedPrior: shape and source checks.
func TestRepairSeedRejectsMalformedPrior(t *testing.T) {
	g := FromEdges(3, true, []Edge{{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 1}})
	_, delta, err := ApplyMutations(g, []Mutation{{Kind: MutDelete, From: 1, To: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := delta.RepairSeed(0, []uint32{0, 1}); err == nil {
		t.Error("short prior accepted")
	}
	if _, _, err := delta.RepairSeed(9, []uint32{0, 1, 2}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, _, err := delta.RepairSeed(0, []uint32{3, 1, 2}); err == nil {
		t.Error("prior with nonzero source distance accepted")
	}
}
