package graph

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"
	"strings"
	"testing"
)

// FuzzReadText: the text parser must never panic, and any graph it
// accepts must survive a write/read round trip.
func FuzzReadText(f *testing.F) {
	f.Add("n 3 directed\n0 1 5\n1 2 7\n")
	f.Add("0 1\n# comment\n\n1 0 3\n")
	f.Add("n 1 undirected\n")
	f.Add("n 0\n")
	f.Add("0 0 0\n")
	f.Add("4294967295 0 1\n")
	f.Add("n abc\nxyz\n")
	f.Add("0 1 4294967295\n")             // weight at the ∞ sentinel
	f.Add("0 1 99999999999999999999\n")   // weight overflows uint32
	f.Add("n 18446744073709551615\n")     // vertex count overflows int
	f.Add("0 1 2 3 4\n")                  // too many fields
	f.Add("n 2 directed\n0 1 5")          // missing trailing newline
	f.Add("n 3 directed\n0 1 5\n0 1 5\n") // duplicate edge
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadText(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if g.NumVertices() > 1<<22 {
			return // avoid huge round trips from absurd ids
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			t.Fatalf("write failed for accepted graph: %v", err)
		}
		g2, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %v vs %v", g, g2)
		}
	})
}

// referenceBuild is Builder.Build as it was before the counting
// scatter: symmetrize an undirected edge list, sort the whole list and
// fold parallel edges (dedupe), then lay it out (toCSR). FuzzBuild
// holds Build to its output.
func referenceBuild(n int, directed bool, added []Edge) *Graph {
	edges := slices.Clone(added)
	if !directed {
		sym := make([]Edge, 0, 2*len(edges))
		for _, e := range edges {
			sym = append(sym, e, Edge{From: e.To, To: e.From, W: e.W})
		}
		edges = sym
	}
	edges = dedupe(edges)
	g := &Graph{n: n, directed: directed}
	g.outOff, g.outDst, g.outW = toCSR(n, edges)
	g.deriveIn()
	return g
}

// dedupe sorts edges by (From, To) and keeps the minimum weight among
// parallel edges.
func dedupe(edges []Edge) []Edge {
	if len(edges) == 0 {
		return edges
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		return edges[i].W < edges[j].W
	})
	out := edges[:1]
	for _, e := range edges[1:] {
		last := &out[len(out)-1]
		if e.From == last.From && e.To == last.To {
			continue // sorted by weight: the kept one is minimal
		}
		out = append(out, e)
	}
	return out
}

// toCSR converts a deduplicated edge list, sorted by (From, To), into
// offset/target/weight arrays whose per-vertex lists ascend.
func toCSR(n int, edges []Edge) ([]int64, []Vertex, []Weight) {
	off := make([]int64, n+1)
	for _, e := range edges {
		off[e.From+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	dst := make([]Vertex, len(edges))
	w := make([]Weight, len(edges))
	for i, e := range edges {
		dst[i], w[i] = e.To, e.W
	}
	return off, dst, w
}

// encodeBuild and decodeBuild map a fuzz input to a Builder's input: a
// vertex count byte (n-1, so 1 ≤ n ≤ 256: few vertices make parallel
// edges common), a directed byte, then 6 bytes per edge: endpoint bytes
// taken modulo n and a uint32 weight taken modulo Infinity. Self-loops
// are kept: AddEdge must drop them.
func encodeBuild(n int, directed bool, edges []Edge) []byte {
	data := []byte{byte(n - 1), 0}
	if directed {
		data[1] = 1
	}
	for _, e := range edges {
		data = append(data, byte(e.From), byte(e.To))
		data = binary.LittleEndian.AppendUint32(data, e.W)
	}
	return data
}

func decodeBuild(data []byte) (n int, directed bool, edges []Edge) {
	if len(data) < 2 {
		return 1, false, nil
	}
	n, directed = int(data[0])+1, data[1]&1 == 1
	for p := 2; p+6 <= len(data); p += 6 {
		edges = append(edges, Edge{
			From: Vertex(int(data[p]) % n),
			To:   Vertex(int(data[p+1]) % n),
			W:    binary.LittleEndian.Uint32(data[p+2:]) % Infinity,
		})
	}
	return n, directed, edges
}

// FuzzBuild is differential: for any vertex count, orientation and edge
// list, Builder.Build must give the reference's out- and in-CSR and
// fingerprint, pass validate, hold no capacity past its arcs, and leave
// the added edges as they were.
func FuzzBuild(f *testing.F) {
	f.Add(encodeBuild(3, false, []Edge{{0, 1, 5}, {1, 0, 3}, {1, 2, 7}})) // both orientations, different weights
	f.Add(encodeBuild(3, true, []Edge{{0, 1, 5}, {1, 0, 3}, {0, 1, 2}}))  // directed parallel arcs
	f.Add(encodeBuild(4, false, []Edge{{2, 3, 9}, {2, 3, 9}, {3, 2, 9}})) // exact duplicates
	f.Add(encodeBuild(4, true, []Edge{{1, 1, 4}, {0, 0, 0}, {1, 2, 0}}))  // self-loops, zero weights
	f.Add(encodeBuild(6, false, []Edge{{0, 5, Infinity - 1}, {5, 0, 1}})) // isolated vertices, extreme weights
	f.Add(encodeBuild(1, false, []Edge{{0, 0, 1}}))                       // n = 1
	f.Add(encodeBuild(5, true, nil))                                      // no edges
	hub := make([]Edge, 0, 300)
	for i := 0; i < 300; i++ {
		// A few hundred arcs out of vertex 0, with repeated targets in
		// descending order and varied weights.
		hub = append(hub, Edge{From: 0, To: Vertex(1 + (299-i)%150), W: Weight(i*7919) % 97})
	}
	f.Add(encodeBuild(200, true, hub))
	f.Add(encodeBuild(200, false, hub))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, directed, edges := decodeBuild(data)
		b := NewBuilder(n, directed)
		b.AddEdges(edges)
		added := slices.Clone(b.edges)
		g := b.Build()
		if !slices.Equal(b.edges, added) {
			t.Fatal("Build modified the added edges")
		}
		if err := validate(g); err != nil {
			t.Fatal(err)
		}
		want := referenceBuild(n, directed, added)
		switch {
		case !slices.Equal(g.outOff, want.outOff), !slices.Equal(g.outDst, want.outDst), !slices.Equal(g.outW, want.outW):
			t.Fatalf("out-CSR differs:\n got  %v %v %v\n want %v %v %v",
				g.outOff, g.outDst, g.outW, want.outOff, want.outDst, want.outW)
		case !slices.Equal(g.inOff, want.inOff), !slices.Equal(g.inSrc, want.inSrc), !slices.Equal(g.inW, want.inW):
			t.Fatal("in-CSR differs")
		case g.WeightFingerprint() != want.WeightFingerprint():
			t.Fatalf("fingerprint %#x, reference %#x", g.WeightFingerprint(), want.WeightFingerprint())
		case cap(g.outDst) != len(g.outDst), cap(g.outW) != len(g.outW):
			t.Fatalf("out-CSR holds %d arcs in arrays of capacity %d and %d",
				len(g.outDst), cap(g.outDst), cap(g.outW))
		}
	})
}
