package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"wasp/internal/rng"
)

// diamond returns the sample-like graph used across tests:
//
//	0 →1→ 1 →1→ 2
//	0 →5→ 3,  2 →1→ 3
func diamond(directed bool) *Graph {
	return FromEdges(4, directed, []Edge{
		{0, 1, 1}, {1, 2, 1}, {0, 3, 5}, {2, 3, 1},
	})
}

func TestBuilderBasic(t *testing.T) {
	g := diamond(true)
	if g.NumVertices() != 4 {
		t.Fatalf("vertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", g.NumEdges())
	}
	if !g.Directed() {
		t.Fatal("expected directed")
	}
	dst, w := g.OutNeighbors(0)
	if len(dst) != 2 || dst[0] != 1 || dst[1] != 3 || w[0] != 1 || w[1] != 5 {
		t.Fatalf("OutNeighbors(0) = %v %v", dst, w)
	}
	src, w2 := g.InNeighbors(3)
	if len(src) != 2 || src[0] != 0 || src[1] != 2 || w2[0] != 5 || w2[1] != 1 {
		t.Fatalf("InNeighbors(3) = %v %v", src, w2)
	}
}

func TestBuilderUndirectedSymmetry(t *testing.T) {
	g := diamond(false)
	if g.NumEdges() != 8 {
		t.Fatalf("undirected edge count = %d, want 8 (each counted twice)", g.NumEdges())
	}
	for u := 0; u < g.NumVertices(); u++ {
		dst, w := g.OutNeighbors(Vertex(u))
		for i, v := range dst {
			back, bw := g.OutNeighbors(v)
			found := false
			for j, x := range back {
				if x == Vertex(u) && bw[j] == w[i] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d) has no symmetric counterpart", u, v)
			}
		}
	}
}

func TestBuilderDropsSelfLoopsAndDedupes(t *testing.T) {
	g := FromEdges(3, true, []Edge{
		{0, 0, 9},                       // self loop dropped
		{0, 1, 7}, {0, 1, 3}, {0, 1, 5}, // parallel edges: min weight kept
		{1, 2, 2},
	})
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	dst, w := g.OutNeighbors(0)
	if len(dst) != 1 || dst[0] != 1 || w[0] != 3 {
		t.Fatalf("dedup kept %v %v, want [1] [3]", dst, w)
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBuilder(2, true)
	b.AddEdge(0, 5, 1)
}

func TestBuilderPanicsOnInfiniteWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBuilder(2, true)
	b.AddEdge(0, 1, Infinity)
}

// TestConstructorsMeetInvariants: every constructor yields a graph that
// passes validate, ReadBinary's check, so no Graph needs rescanning
// once it exists. Builder gets parallel edges and self-loops to fold;
// the generators are covered in internal/gen through ReadBinary.
func TestConstructorsMeetInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, directed := range []bool{false, true} {
		n := 40
		var edges []Edge
		for i := 0; i < 200; i++ {
			edges = append(edges, Edge{From: Vertex(r.Intn(n)), To: Vertex(r.Intn(n)), W: Weight(r.Intn(20))})
		}
		built := FromEdges(n, directed, edges)

		var text, bin bytes.Buffer
		if err := WriteText(&text, built); err != nil {
			t.Fatal(err)
		}
		parsed, err := ReadText(&text)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteBinary(&bin, built); err != nil {
			t.Fatal(err)
		}
		read, err := ReadBinary(&bin)
		if err != nil {
			t.Fatal(err)
		}
		mutable, list := randMutable(r, n, directed, 2)
		batch, _ := randBatch(r, mutable, list, 8)
		mutated, _, err := ApplyMutations(mutable, batch)
		if err != nil {
			t.Fatal(err)
		}
		relabeled, _ := RelabelByDegree(built)
		for _, tc := range []struct {
			name string
			g    *Graph
		}{
			{"Builder", built}, {"ReadText", parsed}, {"ReadBinary", read},
			{"ApplyMutations", mutated}, {"RelabelByDegree", relabeled},
		} {
			if err := validate(tc.g); err != nil {
				t.Errorf("directed=%v %s: %v", directed, tc.name, err)
			}
		}
	}
}

func TestDegreeAccessors(t *testing.T) {
	g := diamond(true)
	cases := []struct{ v, out, in int }{
		{0, 2, 0}, {1, 1, 1}, {2, 1, 1}, {3, 0, 2},
	}
	for _, c := range cases {
		if got := g.OutDegree(Vertex(c.v)); got != c.out {
			t.Errorf("OutDegree(%d) = %d, want %d", c.v, got, c.out)
		}
		if got := g.InDegree(Vertex(c.v)); got != c.in {
			t.Errorf("InDegree(%d) = %d, want %d", c.v, got, c.in)
		}
	}
}

func TestOutNeighborsRange(t *testing.T) {
	g := FromEdges(5, true, []Edge{{0, 1, 1}, {0, 2, 2}, {0, 3, 3}, {0, 4, 4}})
	dst, w := g.OutNeighborsRange(0, 1, 3)
	if len(dst) != 2 || dst[0] != 2 || dst[1] != 3 || w[0] != 2 || w[1] != 3 {
		t.Fatalf("range = %v %v", dst, w)
	}
}

// TestCSRRoundTripProperty: building a graph from random edges preserves
// exactly the deduplicated edge set (property-based).
func TestCSRRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw%50) + 2
		m := int(mRaw % 500)
		r := rng.NewXoshiro256(seed)
		want := map[[2]Vertex]Weight{}
		var edges []Edge
		for i := 0; i < m; i++ {
			u := Vertex(r.IntN(n))
			v := Vertex(r.IntN(n))
			if u == v {
				continue
			}
			w := Weight(r.IntN(1000) + 1)
			edges = append(edges, Edge{u, v, w})
			k := [2]Vertex{u, v}
			if old, ok := want[k]; !ok || w < old {
				want[k] = w
			}
		}
		g := FromEdges(n, true, edges)
		if int(g.NumEdges()) != len(want) {
			return false
		}
		for u := 0; u < n; u++ {
			dst, w := g.OutNeighbors(Vertex(u))
			for i, v := range dst {
				if want[[2]Vertex{Vertex(u), v}] != w[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestComponents(t *testing.T) {
	// Two components: {0,1,2} and {3,4}; 5 isolated.
	g := FromEdges(6, false, []Edge{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}})
	labels, largest := Components(g)
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatalf("component 1 split: %v", labels)
	}
	if labels[3] != labels[4] {
		t.Fatalf("component 2 split: %v", labels)
	}
	if labels[0] == labels[3] || labels[0] == labels[5] {
		t.Fatalf("components merged: %v", labels)
	}
	if largest != labels[0] {
		t.Fatalf("largest = %d, want %d", largest, labels[0])
	}
}

func TestComponentsDirectedWeak(t *testing.T) {
	// 0→1, 2→1: weakly connected even though not strongly.
	g := FromEdges(3, true, []Edge{{0, 1, 1}, {2, 1, 1}})
	labels, _ := Components(g)
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatalf("weak connectivity not detected: %v", labels)
	}
}

func TestSourceInLargestComponent(t *testing.T) {
	g := FromEdges(10, false, []Edge{
		{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, // big component 0-4
		{5, 6, 1}, // small component
	})
	labels, largest := Components(g)
	for seed := uint64(0); seed < 20; seed++ {
		s := SourceInLargestComponent(g, seed)
		if labels[s] != largest {
			t.Fatalf("seed %d picked %d outside largest component", seed, s)
		}
	}
	// Determinism.
	if SourceInLargestComponent(g, 3) != SourceInLargestComponent(g, 3) {
		t.Fatal("source selection not deterministic")
	}
}

func TestSourcesInLargestComponent(t *testing.T) {
	g := FromEdges(10, false, []Edge{
		{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, // big component 0-4
		{5, 6, 1}, // small component
	})
	labels, largest := Components(g)
	srcs := SourcesInLargestComponent(g, 7, 5)
	if len(srcs) != 5 {
		t.Fatalf("got %d sources, want 5", len(srcs))
	}
	for i, s := range srcs {
		if labels[s] != largest {
			t.Fatalf("source %d (%d) outside largest component", i, s)
		}
		// Batch pick i must agree with the single-source picker at seed+i.
		if want := SourceInLargestComponent(g, 7+uint64(i)); s != want {
			t.Fatalf("source %d = %d, want %d (single-pick parity)", i, s, want)
		}
	}
	// Edgeless graph: the zero vertex for every slot, not a panic.
	empty := FromEdges(1, false, nil)
	for _, s := range SourcesInLargestComponent(empty, 1, 3) {
		if s != 0 {
			t.Fatalf("edgeless pick = %d", s)
		}
	}
}

func TestLeafBitmap(t *testing.T) {
	// 0-1 path plus leaf 2 hanging off 1: undirected, vertex 2 has
	// degree 1 → leaf. Vertex 0 also has degree 1 → leaf.
	g := FromEdges(3, false, []Edge{{0, 1, 1}, {1, 2, 1}})
	bm := LeafBitmap(g)
	if !bm.Get(0) || !bm.Get(2) {
		t.Fatalf("degree-1 endpoints should be leaves")
	}
	if bm.Get(1) {
		t.Fatalf("middle vertex is not a leaf")
	}
	if bm.Count() != 2 {
		t.Fatalf("count = %d, want 2", bm.Count())
	}
}

func TestLeafBitmapDirected(t *testing.T) {
	// 0→1 and 1 has no out-edges: in-degree(1)==1, out-degree 0 → leaf.
	// 0→2→3, 3→2: vertex 3 has in-degree 1 (from 2) and out-edge back
	// to 2 only → leaf.
	g := FromEdges(4, true, []Edge{{0, 1, 1}, {0, 2, 1}, {2, 3, 1}, {3, 2, 1}})
	bm := LeafBitmap(g)
	if !bm.Get(1) {
		t.Error("sink with in-degree 1 should be a leaf")
	}
	if !bm.Get(3) {
		t.Error("vertex whose only out-edge returns to its parent should be a leaf")
	}
	if bm.Get(0) || bm.Get(2) {
		t.Error("interior vertices misclassified as leaves")
	}
}

func TestBitmapBasics(t *testing.T) {
	bm := NewBitmap(130)
	for _, i := range []int{0, 63, 64, 129} {
		bm.Set(i)
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !bm.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if bm.Get(1) || bm.Get(128) {
		t.Fatal("unexpected bits set")
	}
	if bm.Count() != 4 {
		t.Fatalf("count = %d, want 4", bm.Count())
	}
	if bm.Len() != 130 {
		t.Fatalf("len = %d", bm.Len())
	}
}

func TestStats(t *testing.T) {
	g := diamond(true)
	s := ComputeStats(g)
	if s.Vertices != 4 || s.Edges != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxOutDegree != 2 || s.MaxDegreeV != 0 {
		t.Fatalf("max degree: %+v", s)
	}
	if s.AvgOutDegree != 1.0 {
		t.Fatalf("avg degree = %v", s.AvgOutDegree)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestMaxOutDegree(t *testing.T) {
	g := FromEdges(4, true, []Edge{{2, 0, 1}, {2, 1, 1}, {2, 3, 1}, {0, 1, 1}})
	v, d := g.MaxOutDegree()
	if v != 2 || d != 3 {
		t.Fatalf("MaxOutDegree = (%d,%d), want (2,3)", v, d)
	}
}

// TestUndirectedInAdjacencyAliasesOut: an undirected graph stores one
// CSR, and its in-adjacency is the out-adjacency itself, whichever way
// the graph was made. The solver's one-pass bidirectional relaxation
// pulls through a vertex's out-neighbors on that basis.
func TestUndirectedInAdjacencyAliasesOut(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g, edges := randMutable(r, 60, false, 2)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	read, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	insert := Mutation{Kind: MutInsert, From: 0, To: 1, W: 3}
	for _, ok := g.FindEdge(0, insert.To); ok; _, ok = g.FindEdge(0, insert.To) {
		insert.To++
	}
	topo, _, err := ApplyMutations(g, []Mutation{
		insert, {Kind: MutDelete, From: edges[1].From, To: edges[1].To},
	})
	if err != nil {
		t.Fatal(err)
	}
	weights, _, err := ApplyMutations(g, []Mutation{
		{Kind: MutSetWeight, From: edges[2].From, To: edges[2].To, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	relabeled, _ := RelabelByDegree(g)
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"Builder", g}, {"binary round trip", read}, {"mutation batch", topo},
		{"weight-only batch", weights}, {"RelabelByDegree", relabeled},
	} {
		if tc.g.Directed() {
			t.Fatalf("%s: graph became directed", tc.name)
		}
		for u := 0; u < tc.g.NumVertices(); u++ {
			src, inW := tc.g.InNeighbors(Vertex(u))
			dst, outW := tc.g.OutNeighbors(Vertex(u))
			if len(src) != len(dst) || len(inW) != len(outW) ||
				len(dst) > 0 && (&src[0] != &dst[0] || &inW[0] != &outW[0]) {
				t.Fatalf("%s: vertex %d's in-adjacency does not alias its out-adjacency", tc.name, u)
			}
		}
	}
}
