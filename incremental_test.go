package wasp

import (
	"context"
	"math/rand"
	"testing"
)

// ---------------------------------------------------------------------------
// Helpers: random mutable graphs and valid mutation batches.
// ---------------------------------------------------------------------------

// incrGraph builds a random graph with a weighted spine (so most of
// the graph is reachable and distances are interesting) plus random
// cross edges.
func incrGraph(r *rand.Rand, n int, directed bool) *Graph {
	var edges []Edge
	for i := 1; i < n-4; i++ {
		edges = append(edges, Edge{From: Vertex(i - 1), To: Vertex(i), W: 1 + uint32(r.Intn(20))})
	}
	for i := 0; i < 2*n; i++ {
		u := Vertex(r.Intn(n))
		v := Vertex(r.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, Edge{From: u, To: v, W: 1 + uint32(r.Intn(30))})
	}
	return FromEdges(n, directed, edges)
}

// incrEdgeList extracts one record per logical edge (u < v once for
// undirected graphs).
func incrEdgeList(g *Graph) []Edge {
	var edges []Edge
	for u := 0; u < g.NumVertices(); u++ {
		nbrs, ws := g.OutNeighbors(Vertex(u))
		for i, v := range nbrs {
			if !g.Directed() && Vertex(u) > v {
				continue
			}
			edges = append(edges, Edge{From: Vertex(u), To: v, W: ws[i]})
		}
	}
	return edges
}

// incrBatch derives a valid mutation batch against g. mode is
// "decrease" (inserts and weight cuts only), "increase" (deletes and
// weight raises only), or "mixed".
func incrBatch(r *rand.Rand, g *Graph, mode string, size int) []Mutation {
	n := g.NumVertices()
	edges := incrEdgeList(g)
	var batch []Mutation
	touched := map[[2]Vertex]bool{}
	touch := func(u, v Vertex) bool {
		if touched[[2]Vertex{u, v}] || touched[[2]Vertex{v, u}] {
			return false
		}
		touched[[2]Vertex{u, v}] = true
		return true
	}
	hasEdge := func(u, v Vertex) bool {
		if _, ok := g.FindEdge(u, v); ok {
			return true
		}
		if !g.Directed() {
			if _, ok := g.FindEdge(v, u); ok {
				return true
			}
		}
		return false
	}
	for attempts := 0; len(batch) < size && attempts < 50*size; attempts++ {
		op := r.Intn(4)
		decrease := op < 2 // 0,1: insert / cut weight; 2,3: delete / raise weight
		if mode == "decrease" {
			decrease = true
		} else if mode == "increase" {
			decrease = false
		}
		if decrease {
			if op%2 == 0 { // insert
				u := Vertex(r.Intn(n))
				v := Vertex(r.Intn(n))
				if u == v || hasEdge(u, v) || !touch(u, v) {
					continue
				}
				batch = append(batch, Mutation{Kind: MutInsert, From: u, To: v, W: 1 + uint32(r.Intn(30))})
			} else { // cut an existing weight
				e := edges[r.Intn(len(edges))]
				if e.W <= 1 || !touch(e.From, e.To) {
					continue
				}
				batch = append(batch, Mutation{Kind: MutSetWeight, From: e.From, To: e.To, W: uint32(r.Intn(int(e.W)))})
			}
		} else {
			e := edges[r.Intn(len(edges))]
			if !touch(e.From, e.To) {
				continue
			}
			if op%2 == 0 { // delete
				batch = append(batch, Mutation{Kind: MutDelete, From: e.From, To: e.To})
			} else { // raise the weight
				batch = append(batch, Mutation{Kind: MutSetWeight, From: e.From, To: e.To, W: e.W + 1 + uint32(r.Intn(30))})
			}
		}
	}
	return batch
}

// oracleDist is the differential reference: sequential Dijkstra,
// sharing no code with the Wasp repair path under test.
func oracleDist(t testing.TB, g *Graph, source Vertex) []uint32 {
	t.Helper()
	res, err := RunContext(context.Background(), g, source, Options{Algorithm: AlgoDijkstra})
	if err != nil {
		t.Fatalf("oracle solve: %v", err)
	}
	return res.Dist
}

func firstDiff(a, b []uint32) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// repair is the incremental solve under test: a fresh session on the
// delta's post-mutation graph resumes from the repair seed of prior.
func repair(t testing.TB, delta *MutationDelta, opt Options, source Vertex, prior []uint32) *Result {
	t.Helper()
	sess, err := NewSession(delta.Graph(), opt)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := delta.Seed(source, prior)
	if err != nil {
		t.Fatalf("Seed: %v", err)
	}
	res, err := sess.Resume(context.Background(), cp)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	return res
}

// ---------------------------------------------------------------------------
// Satellite 1: the differential battery. Random mutation streams,
// incremental repair bit-identical to a fresh solve after every batch,
// across batch modes and steal policies. CI runs this under -race.
// ---------------------------------------------------------------------------

func TestIncrementalDifferential(t *testing.T) {
	policies := []struct {
		name string
		p    StealPolicy
	}{
		{"wasp", StealWasp}, {"random", StealRandom}, {"two-choice", StealTwoChoice},
	}
	rounds := 5
	if testing.Short() {
		rounds = 2
	}
	for _, directed := range []bool{false, true} {
		for _, mode := range []string{"decrease", "increase", "mixed"} {
			for _, pol := range policies {
				directed, mode, pol := directed, mode, pol
				name := mode + "/" + pol.name
				if directed {
					name += "/directed"
				} else {
					name += "/undirected"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					r := rand.New(rand.NewSource(int64(len(mode))*31 + int64(pol.p)*7 + 5))
					const n = 160
					g := incrGraph(r, n, directed)
					opt := Options{Algorithm: AlgoWasp, Workers: 4, Steal: pol.p}
					source := Vertex(0)

					prior := append([]uint32(nil), oracleDist(t, g, source)...)
					for round := 0; round < rounds; round++ {
						batch := incrBatch(r, g, mode, 1+r.Intn(5))
						if len(batch) == 0 {
							continue
						}
						ng, delta, err := ApplyMutations(g, batch)
						if err != nil {
							t.Fatalf("round %d: %v", round, err)
						}
						g = ng
						res := repair(t, delta, opt, source, prior)
						if !res.Complete {
							t.Fatalf("round %d: incremental solve incomplete", round)
						}
						want := oracleDist(t, g, source)
						if i := firstDiff(res.Dist, want); i >= 0 {
							t.Fatalf("round %d (%s): incremental dist[%d] = %d, fresh solve %d",
								round, mode, i, res.Dist[i], want[i])
						}
						prior = append(prior[:0], res.Dist...)
					}
				})
			}
		}
	}
}

// FuzzIncremental drives the same differential check from fuzzed
// inputs: any mutation stream the generator can express must repair to
// exactly the fresh solution.
func FuzzIncremental(f *testing.F) {
	f.Add(uint64(1), uint8(3), false)
	f.Add(uint64(42), uint8(7), true)
	f.Add(uint64(12345), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed uint64, size uint8, directed bool) {
		r := rand.New(rand.NewSource(int64(seed)))
		const n = 64
		g := incrGraph(r, n, directed)
		source := Vertex(0)
		prior := oracleDist(t, g, source)

		batch := incrBatch(r, g, "mixed", 1+int(size%8))
		if len(batch) == 0 {
			t.Skip("no applicable mutations")
		}
		ng, delta, err := ApplyMutations(g, batch)
		if err != nil {
			t.Fatalf("mutate: %v", err)
		}
		res := repair(t, delta, Options{Algorithm: AlgoWasp, Workers: 2}, source, prior)
		want := oracleDist(t, ng, source)
		if i := firstDiff(res.Dist, want); i >= 0 {
			t.Fatalf("incremental dist[%d] = %d, fresh solve %d", i, res.Dist[i], want[i])
		}
	})
}

// ---------------------------------------------------------------------------
// Satellite 2: metamorphic properties.
// ---------------------------------------------------------------------------

// TestMetamorphicNonImprovingInsert: inserting an edge that cannot
// shorten any path leaves the distance array exactly unchanged.
func TestMetamorphicNonImprovingInsert(t *testing.T) {
	for _, directed := range []bool{false, true} {
		r := rand.New(rand.NewSource(3))
		g := incrGraph(r, 96, directed)
		source := Vertex(0)
		prior := oracleDist(t, g, source)

		// Find a missing pair of reachable vertices and pick a weight
		// that cannot improve either direction.
		var u, v Vertex
		var w Weight
		found := false
		for attempts := 0; attempts < 1000 && !found; attempts++ {
			u = Vertex(r.Intn(96))
			v = Vertex(r.Intn(96))
			if u == v || prior[u] == Infinity || prior[v] == Infinity {
				continue
			}
			if _, ok := g.FindEdge(u, v); ok {
				continue
			}
			if _, ok := g.FindEdge(v, u); ok && !directed {
				continue
			}
			diff := func(a, b uint32) uint32 {
				if a > b {
					return a - b
				}
				return b - a
			}
			w = diff(prior[u], prior[v]) + 1 + uint32(r.Intn(5))
			found = true
		}
		if !found {
			t.Fatal("no insertable non-improving edge found")
		}

		_, delta, err := ApplyMutations(g, []Mutation{{Kind: MutInsert, From: u, To: v, W: w}})
		if err != nil {
			t.Fatal(err)
		}
		res := repair(t, delta, Options{Algorithm: AlgoWasp, Workers: 4}, source, prior)
		if i := firstDiff(res.Dist, prior); i >= 0 {
			t.Fatalf("directed=%v: non-improving insert changed dist[%d]: %d -> %d", directed, i, prior[i], res.Dist[i])
		}
	}
}

// TestMetamorphicNonTreeDeleteNoop: deleting an edge no shortest path
// uses changes nothing — and the repair seed must prove it by
// invalidating zero vertices.
func TestMetamorphicNonTreeDeleteNoop(t *testing.T) {
	for _, directed := range []bool{false, true} {
		r := rand.New(rand.NewSource(5))
		g := incrGraph(r, 96, directed)
		source := Vertex(0)
		prior := oracleDist(t, g, source)

		// A strictly slack edge in every stored direction is unused by
		// every shortest path.
		slack := func(u, v Vertex, w Weight) bool {
			du, dv := prior[u], prior[v]
			if du != Infinity && dv != Infinity && uint64(du)+uint64(w) == uint64(dv) {
				return false
			}
			return true
		}
		var pick *Edge
		for _, e := range incrEdgeList(g) {
			if !slack(e.From, e.To, e.W) {
				continue
			}
			if !directed && !slack(e.To, e.From, e.W) {
				continue
			}
			e := e
			pick = &e
			break
		}
		if pick == nil {
			t.Fatal("no slack edge found")
		}

		_, delta, err := ApplyMutations(g, []Mutation{{Kind: MutDelete, From: pick.From, To: pick.To}})
		if err != nil {
			t.Fatal(err)
		}
		if inv, err := delta.Invalidated(source, prior); err != nil || inv != 0 {
			t.Fatalf("directed=%v: deleting slack edge (%d,%d) invalidated %d vertices (err %v), want 0",
				directed, pick.From, pick.To, inv, err)
		}
		res := repair(t, delta, Options{Algorithm: AlgoWasp, Workers: 4}, source, prior)
		if i := firstDiff(res.Dist, prior); i >= 0 {
			t.Fatalf("directed=%v: slack-edge delete changed dist[%d]: %d -> %d", directed, i, prior[i], res.Dist[i])
		}
	}
}

// TestMetamorphicInverseRestores: applying a batch and then its exact
// inverse restores both the graph (fingerprint included) and the
// repaired distance array bit-for-bit.
func TestMetamorphicInverseRestores(t *testing.T) {
	for _, directed := range []bool{false, true} {
		r := rand.New(rand.NewSource(9))
		g := incrGraph(r, 96, directed)
		source := Vertex(0)
		origFP := g.WeightFingerprint()
		prior := oracleDist(t, g, source)

		batch := incrBatch(r, g, "mixed", 6)
		inverse := make([]Mutation, 0, len(batch))
		for _, m := range batch {
			switch m.Kind {
			case MutInsert:
				inverse = append(inverse, Mutation{Kind: MutDelete, From: m.From, To: m.To})
			case MutDelete:
				w, _ := g.FindEdge(m.From, m.To)
				inverse = append(inverse, Mutation{Kind: MutInsert, From: m.From, To: m.To, W: w})
			case MutSetWeight:
				w, _ := g.FindEdge(m.From, m.To)
				inverse = append(inverse, Mutation{Kind: MutSetWeight, From: m.From, To: m.To, W: w})
			}
		}

		run := func(delta *MutationDelta, seed []uint32) []uint32 {
			t.Helper()
			res := repair(t, delta, Options{Algorithm: AlgoWasp, Workers: 4}, source, seed)
			return append([]uint32(nil), res.Dist...)
		}

		mg, d1, err := ApplyMutations(g, batch)
		if err != nil {
			t.Fatal(err)
		}
		mid := run(d1, prior)
		restored, d2, err := ApplyMutations(mg, inverse)
		if err != nil {
			t.Fatal(err)
		}
		back := run(d2, mid)

		if got := restored.WeightFingerprint(); got != origFP {
			t.Fatalf("directed=%v: batch+inverse fingerprint %x != original %x", directed, got, origFP)
		}
		if i := firstDiff(back, prior); i >= 0 {
			t.Fatalf("directed=%v: batch+inverse changed dist[%d]: %d -> %d", directed, i, prior[i], back[i])
		}
	}
}

// ---------------------------------------------------------------------------
// The registry's mutate-and-swap lifecycle. Seed and Resume validation
// rows live in the serving-path table (serving_paths_test.go).
// ---------------------------------------------------------------------------

func TestRegistryMutate(t *testing.T) {
	r := testRegistry(t)
	ctx := context.Background()
	const n = 24

	if _, _, err := r.Mutate(ctx, "missing", []Mutation{{Kind: MutDelete, From: 0, To: 1}}); err == nil {
		t.Fatal("mutate of unknown graph accepted")
	}

	if err := r.Load(ctx, chainBundle("g", 1, n, 1)); err != nil {
		t.Fatal(err)
	}
	// The pool counters are the graph's, not the version's: every run
	// below adds to one series across the Mutate and the Rollback.
	completed := func(want int64) {
		t.Helper()
		if st, _ := r.Stats("g"); st.Completed != want {
			t.Fatalf("Stats(g).Completed = %d, want %d", st.Completed, want)
		}
	}
	if _, err := r.Run(ctx, "g", 0); err != nil {
		t.Fatal(err)
	}
	completed(1)

	// Malformed batch: rejected whole, v1 keeps serving.
	if _, _, err := r.Mutate(ctx, "g", []Mutation{{Kind: MutDelete, From: 0, To: 9}}); err == nil {
		t.Fatal("malformed batch accepted")
	}
	if st, ok := r.Status("g"); !ok || st.Version != 1 || st.State != GraphServing {
		t.Fatalf("after rejected batch: status %+v", st)
	}

	// A real mutation bumps the version and is immediately visible.
	version, delta, err := r.Mutate(ctx, "g", []Mutation{{Kind: MutSetWeight, From: 0, To: 1, W: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 {
		t.Fatalf("version = %d, want 2", version)
	}
	if delta.Increased() != 1 || delta.Decreased() != 0 {
		t.Fatalf("delta = %d increased / %d decreased, want 1/0", delta.Increased(), delta.Decreased())
	}
	res, err := r.Run(ctx, "g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Dist[n-1], uint32(5+(n-2)); got != want {
		t.Fatalf("post-mutation dist[%d] = %d, want %d", n-1, got, want)
	}
	completed(2)
	if st := r.ReloadStats(); st.Mutated != 1 {
		t.Fatalf("ReloadStats.Mutated = %d, want 1", st.Mutated)
	}

	// Rollback still works: the pre-mutation version was retired into
	// the history, so the original weights come back.
	if _, err := r.Rollback(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	res, err = r.Run(ctx, "g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Dist[n-1], uint32(n-1); got != want {
		t.Fatalf("post-rollback dist[%d] = %d, want %d", n-1, got, want)
	}
	completed(3)
}

// TestRegistryMutateRejectsRelabeled: mutation batches address
// original ids, so relabeled deployments must refuse them.
func TestRegistryMutateRejectsRelabeled(t *testing.T) {
	r := testRegistry(t)
	ctx := context.Background()
	g := chain(16, 1)
	rg, perm := RelabelByDegree(g)
	b := &Bundle{
		Manifest: BundleManifest{Name: "g", Version: 1},
		Graph:    rg,
		Relabel:  perm,
	}
	if err := r.Load(ctx, b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Mutate(ctx, "g", []Mutation{{Kind: MutSetWeight, From: 0, To: 1, W: 2}}); err == nil {
		t.Fatal("mutation on relabeled deployment accepted")
	}
}
