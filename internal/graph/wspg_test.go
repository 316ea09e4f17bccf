package graph_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"

	"wasp/internal/baseline/dijkstra"
	"wasp/internal/core"
	"wasp/internal/graph"
)

// wspg encodes a WSPG stream field by field, with none of WriteBinary's
// guarantees, so tests can hand ReadBinary what no constructor builds.
// Extra sections (a version-1 in-CSR) follow the weights.
func wspg(version, flags, n uint64, off []int64, dst, w []uint32, extra ...any) []byte {
	var b bytes.Buffer
	b.WriteString("WSPG")
	for _, field := range append([]any{version, flags, n, uint64(len(dst)), off, dst, w}, extra...) {
		if err := binary.Write(&b, binary.LittleEndian, field); err != nil {
			panic(err)
		}
	}
	return b.Bytes()
}

// dump returns WriteBinary's encoding of g.
func dump(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := graph.WriteBinary(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// version is the WSPG version WriteBinary writes.
func version(t testing.TB) uint64 {
	return binary.LittleEndian.Uint64(dump(t, graph.FromEdges(1, true, nil))[4:12])
}

// overstated is a 100-byte stream whose header claims 2^20 vertices and
// 2^20 arcs.
func overstated(v uint64) []byte {
	return wspg(v, 0, 1<<20, make([]int64, 8), make([]uint32, 1<<20), nil)[:100]
}

// badStream is a WSPG stream ReadBinary must refuse and a fragment of
// the error it must give.
type badStream struct {
	name, want string
	data       []byte
}

// rejected lists one stream of every class ReadBinary refuses. The
// undirected cases carry no in-CSR in any WSPG version, so they parse
// and must fail on their contents alone.
func rejected(v uint64) []badStream {
	const inf = graph.Infinity
	return []badStream{
		// Arcs 0→1:5, 1→0:5, 1→2:1, 2→0:1, 2→1:1: (2,0) has no twin.
		// From vertex 0 Wasp solves it to [0 2 1], Dijkstra to [0 5 6].
		{"asymmetric undirected", "no twin",
			wspg(v, 0, 3, []int64{0, 1, 3, 5}, []uint32{1, 0, 2, 0, 1}, []uint32{5, 5, 1, 1, 1})},
		{"unsorted out-list", "ascend",
			wspg(v, 0, 3, []int64{0, 2, 3, 4}, []uint32{2, 1, 0, 0}, []uint32{1, 1, 1, 1})},
		{"duplicate out-list entry", "ascend",
			wspg(v, 0, 2, []int64{0, 2, 4}, []uint32{1, 1, 0, 0}, []uint32{1, 1, 1, 1})},
		{"out-of-range endpoint", "out of range",
			wspg(v, 0, 2, []int64{0, 1, 3}, []uint32{1, 0, 7}, []uint32{1, 1, 1})},
		{"self-loop", "self-loop",
			wspg(v, 0, 2, []int64{0, 1, 1}, []uint32{0}, []uint32{1})},
		{"weight at Infinity", "not below Infinity",
			wspg(v, 0, 2, []int64{0, 1, 2}, []uint32{1, 0}, []uint32{inf, inf})},
		{"offsets beyond the arcs", "out of order",
			wspg(v, 1, 2, []int64{0, 5, 1}, []uint32{1}, []uint32{1})},
		{"offsets not from 0", "offsets run",
			wspg(v, 1, 2, []int64{1, 1, 1}, []uint32{1}, []uint32{1})},
		{"no vertices", "vertex count",
			wspg(v, 0, 0, []int64{0}, nil, nil)},
		{"unknown flag bits", "flag",
			wspg(v, 2, 2, []int64{0, 1, 2}, []uint32{1, 0}, []uint32{1, 1})},
		{"overstated counts", io.ErrUnexpectedEOF.Error(), overstated(v)},
		// The version-1 layout of the directed path 0→1→2: its in-CSR
		// follows the out-CSR.
		{"version 1", "version",
			wspg(1, 1, 3, []int64{0, 1, 2, 2}, []uint32{1, 2}, []uint32{1, 1},
				[]int64{0, 0, 1, 2}, []uint32{0, 1}, []uint32{1, 1})},
	}
}

// TestReadBinaryRejects: ReadBinary returns no graph that breaks an
// invariant the solvers assume, and names what is wrong.
func TestReadBinaryRejects(t *testing.T) {
	for _, c := range rejected(version(t)) {
		t.Run(c.name, func(t *testing.T) {
			g, err := graph.ReadBinary(bytes.NewReader(c.data))
			if err == nil {
				t.Fatalf("accepted %v", g)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestReadBinaryOverstatedCounts: a header cannot make ReadBinary
// allocate what the stream does not hold.
func TestReadBinaryOverstatedCounts(t *testing.T) {
	data := overstated(version(t))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := graph.ReadBinary(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want a truncation wrapping io.ErrUnexpectedEOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
		t.Fatalf("a %d-byte stream allocated %d bytes", len(data), alloc)
	}
}

// FuzzReadBinary: ReadBinary is the one gate from bytes to a Graph. It
// must reject corrupt input without panicking or over-allocating; a
// graph it accepts must re-encode to the bytes it came from, and Wasp
// (2 workers; leaf pruning, bidirectional relaxation and decomposition
// on) must solve it from vertex 0 bit-identically to Dijkstra.
//
// Wasp keeps one local bucket per Δ-level up to the largest tentative
// distance, so Δ=1 under weights near 2^32 asks for gigabytes of
// buckets. Δ is therefore the smallest power of two that keeps every
// simple path's level below 2^16: 1 unless the weights are large.
func FuzzReadBinary(f *testing.F) {
	f.Add(dump(f, graph.FromEdges(5, true, []graph.Edge{
		{From: 0, To: 1, W: 2}, {From: 1, To: 2, W: 3}, {From: 0, To: 2, W: 9},
		{From: 0, To: 3, W: 1}, {From: 3, To: 4, W: 1}, {From: 2, To: 0, W: 1},
	})))
	f.Add(dump(f, graph.FromEdges(6, false, []graph.Edge{
		{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 1}, {From: 0, To: 3, W: 5},
		{From: 2, To: 3, W: 1}, {From: 3, To: 4, W: 2}, {From: 2, To: 5, W: 7},
	})))
	f.Add(dump(f, graph.FromEdges(4, true, []graph.Edge{
		{From: 0, To: 1, W: graph.Infinity - 1}, {From: 1, To: 2, W: 5},
		{From: 0, To: 2, W: 3e9}, {From: 2, To: 3, W: 1 << 30},
	})))
	for _, c := range rejected(version(f)) {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		g, err := graph.ReadBinary(r)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if got := dump(t, g); !bytes.Equal(got, data[:len(data)-r.Len()]) {
			t.Fatalf("accepted stream re-encodes differently:\n read  %x\n wrote %x", data[:len(data)-r.Len()], got)
		}
		longest := uint64(0)
		for u := graph.Vertex(0); int(u) < g.NumVertices(); u++ {
			_, ws := g.OutNeighbors(u)
			for _, w := range ws {
				longest = max(longest, uint64(w))
			}
		}
		longest *= uint64(g.NumVertices() - 1)
		delta := uint64(1)
		for longest/delta >= 1<<16 {
			delta *= 2
		}
		want := dijkstra.Run(g, 0).Dist
		got := core.Run(g, 0, core.Options{Delta: uint32(min(delta, 1<<31)), Workers: 2, Theta: 2}).Dist
		if !slices.Equal(got, want) {
			t.Fatalf("%v, Δ=%d: Wasp %v, Dijkstra %v", g, delta, got, want)
		}
	})
}
