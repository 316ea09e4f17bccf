package bundle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wasp/internal/checkpoint"
	"wasp/internal/graph"
)

// testGraph builds a small directed diamond.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.FromEdges(4, true, []graph.Edge{
		{From: 0, To: 1, W: 1}, {From: 0, To: 2, W: 4},
		{From: 1, To: 2, W: 1}, {From: 2, To: 3, W: 2},
	})
}

// testBundle assembles a full-featured bundle: manifest, graph and a
// relabel permutation.
func testBundle(t *testing.T) *Bundle {
	t.Helper()
	return &Bundle{
		Manifest: Manifest{Name: "diamond", Version: 3, Description: "test"},
		Graph:    testGraph(t),
		Relabel:  []graph.Vertex{0, 1, 2, 3},
	}
}

func encode(t *testing.T, b *Bundle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, b); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// TestRoundTrip: Write∘Read preserves the manifest, graph shape and
// permutation.
func TestRoundTrip(t *testing.T) {
	b := testBundle(t)
	got, err := Read(bytes.NewReader(encode(t, b)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Manifest != b.Manifest {
		t.Fatalf("manifest round-trip: got %+v, want %+v", got.Manifest, b.Manifest)
	}
	if got.Graph.NumVertices() != 4 || got.Graph.NumEdges() != 4 || !got.Graph.Directed() {
		t.Fatalf("graph shape round-trip: %v", got.Graph)
	}
	if len(got.Relabel) != 4 {
		t.Fatalf("relabel round-trip: %v", got.Relabel)
	}
	// The graph must be deployable: edges intact.
	dst, w := got.Graph.OutNeighbors(0)
	if len(dst) != 2 || dst[0] != 1 || w[0] != 1 {
		t.Fatalf("graph edges corrupted: %v %v", dst, w)
	}
}

// TestWriteFillsFingerprint: a writer may leave the manifest shape
// fields zero; Write derives them from the graph.
func TestWriteFillsFingerprint(t *testing.T) {
	b := &Bundle{Manifest: Manifest{Name: "g", Version: 1}, Graph: testGraph(t)}
	got, err := Read(bytes.NewReader(encode(t, b)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Manifest.Vertices != 4 || got.Manifest.Edges != 4 || !got.Manifest.Directed {
		t.Fatalf("fingerprint not filled: %+v", got.Manifest)
	}
}

// TestRejectTruncation: every strict prefix of a valid bundle fails
// with a decode error, never a panic or a silent partial bundle.
func TestRejectTruncation(t *testing.T) {
	valid := encode(t, testBundle(t))
	for cut := 0; cut < len(valid); cut += 7 {
		if _, err := Read(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(valid))
		}
	}
}

// TestRejectCorruption: flipping any single byte after the magic is
// caught — by a section CRC, a structural check, or a validation error.
func TestRejectCorruption(t *testing.T) {
	valid := encode(t, testBundle(t))
	for i := 4; i < len(valid); i += 11 {
		mut := bytes.Clone(valid)
		mut[i] ^= 0x40
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flipped byte %d accepted", i)
		}
	}
}

// TestRejectVersion1: a version-1 header is refused with ErrVersion
// before any section is read. Version 1 stored the manifest's weight_fp
// as byte-wise FNV-1a, which no graph hashes to any more.
func TestRejectVersion1(t *testing.T) {
	v1 := encode(t, testBundle(t))
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	if _, err := Read(bytes.NewReader(v1)); !errors.Is(err, ErrVersion) {
		t.Fatalf("version-1 bundle: %v, want ErrVersion", err)
	}
}

// TestRejectWrongFingerprint: a manifest whose shape disagrees with the
// graph section is rejected even when both sections checksum clean.
func TestRejectWrongFingerprint(t *testing.T) {
	b := testBundle(t)
	b.Manifest.Vertices = 5
	var buf bytes.Buffer
	if err := Write(&buf, b); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Write with wrong fingerprint: %v, want ErrInvalid", err)
	}
}

// TestRejectForeignCheckpoint: section kind 3, which once carried a
// warm-start checkpoint, is retired. A well-framed WSCK section is
// rejected as an unknown kind, even one whose checkpoint belongs to the
// bundle's own graph.
func TestRejectForeignCheckpoint(t *testing.T) {
	b := &Bundle{Manifest: Manifest{Name: "g", Version: 1}, Graph: testGraph(t)}
	data := encode(t, b)
	g := b.Graph
	cp := &checkpoint.Snapshot{
		Source:        0,
		GraphVertices: g.NumVertices(),
		GraphEdges:    g.NumEdges(),
		Directed:      g.Directed(),
		WeightFP:      g.WeightFingerprint(),
		Dist:          []uint32{0, 1, 2, 4},
	}
	var wsck, extra bytes.Buffer
	if err := cp.Encode(&wsck); err != nil {
		t.Fatal(err)
	}
	if err := writeSection(&extra, 3, wsck.Bytes()); err != nil {
		t.Fatal(err)
	}
	data[8]++ // one more section
	data = append(data, extra.Bytes()...)
	_, err := Read(bytes.NewReader(data))
	if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "unknown section kind 3") {
		t.Fatalf("bundle with a checkpoint section: %v, want ErrMalformed for unknown kind 3", err)
	}
}

// TestRejectBadPermutation: non-bijective or wrong-length permutations
// are rejected.
func TestRejectBadPermutation(t *testing.T) {
	for _, perm := range [][]graph.Vertex{
		{0, 1, 2},       // short
		{0, 1, 2, 2},    // duplicate
		{0, 1, 2, 9},    // out of range
		{0, 1, 2, 3, 0}, // long
	} {
		b := testBundle(t)
		b.Relabel = perm
		var buf bytes.Buffer
		if err := Write(&buf, b); !errors.Is(err, ErrInvalid) {
			t.Fatalf("permutation %v: %v, want ErrInvalid", perm, err)
		}
	}
}

// frame assembles a two-section bundle image by hand — manifest JSON
// and a WSPG graph payload with valid CRCs — bypassing Write's
// normalization and validation, so Read alone judges the contents.
func frame(t *testing.T, manifest, graphPayload []byte) []byte {
	t.Helper()
	var data bytes.Buffer
	var hdr [12]byte
	copy(hdr[0:4], Magic)
	hdr[4] = Version
	hdr[8] = 2 // two sections
	data.Write(hdr[:])
	if err := writeSection(&data, secManifest, manifest); err != nil {
		t.Fatal(err)
	}
	if err := writeSection(&data, secGraph, graphPayload); err != nil {
		t.Fatal(err)
	}
	return data.Bytes()
}

// TestRejectBadWeights: a graph section whose weights reach Infinity is
// structurally invalid — a hand-built WSPG payload must not smuggle the
// "unreachable" sentinel past the loader as an edge weight. The bundle
// is framed by hand (valid CRCs, a manifest matching the graph's shape)
// so that only the structural validation layer can object. No
// constructor builds the saturated graph, so the manifest carries the
// honest graph's fingerprint, and the error must name the weight.
func TestRejectBadWeights(t *testing.T) {
	g := graph.FromEdges(2, true, []graph.Edge{{From: 0, To: 1, W: 1}})
	gbad := graph.FromEdges(2, true, []graph.Edge{{From: 0, To: 1, W: 7}})
	var bufGood, bufBad bytes.Buffer
	if err := graph.WriteBinary(&bufGood, g); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(&bufBad, gbad); err != nil {
		t.Fatal(err)
	}
	// The two dumps differ only in the weight word's low byte; saturate
	// the whole little-endian word to Infinity (0xffffffff).
	payload := bytes.Clone(bufGood.Bytes())
	j := -1
	for i := range payload {
		if payload[i] != bufBad.Bytes()[i] {
			j = i
			break
		}
	}
	if j < 0 {
		t.Fatal("weight byte not located")
	}
	for k := 0; k < 4; k++ {
		payload[j+k] = 0xff
	}

	manifest := []byte(fmt.Sprintf(`{"name":"bad","version":1,"vertices":2,"edges":1,"directed":true,"weight_fp":%d}`,
		g.WeightFingerprint()))
	_, err := Read(bytes.NewReader(frame(t, manifest, payload)))
	if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "not below Infinity") {
		t.Fatalf("saturated weight: %v, want ErrInvalid naming the weight", err)
	}
}

// TestSaveLoadAtomic: Save publishes a complete file (no temp leftovers
// on success) and Load round-trips it.
func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.wspb")
	b := testBundle(t)
	if err := Save(path, b); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Manifest != b.Manifest {
		t.Fatalf("Load manifest = %+v, want %+v", got.Manifest, b.Manifest)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory has %d entries after Save, want 1 (temp leaked?)", len(ents))
	}
}

// TestRejectUnknownSection: an unrecognized section kind fails the
// whole bundle — skipping unvalidated payloads is not an option for a
// format that replaces live serving state.
func TestRejectUnknownSection(t *testing.T) {
	var buf bytes.Buffer
	b := &Bundle{Manifest: Manifest{Name: "g", Version: 1}, Graph: testGraph(t)}
	if err := Write(&buf, b); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Bump the section count and append a well-framed section of an
	// unknown kind.
	data[8]++
	var extra bytes.Buffer
	if err := writeSection(&extra, 99, []byte("mystery")); err != nil {
		t.Fatal(err)
	}
	data = append(data, extra.Bytes()...)
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("unknown section: %v, want ErrMalformed", err)
	}
}

// TestRejectSameShapeDifferentWeights is the regression test for the
// content-fingerprint extension: two graphs with identical shape
// (vertices, edges, directedness) but different edge weights must not
// be able to exchange manifests. Shape checks alone cannot catch this —
// it is exactly the stale-result hazard for anything keyed by graph
// identity.
func TestRejectSameShapeDifferentWeights(t *testing.T) {
	mk := func(w graph.Weight) *graph.Graph {
		return graph.FromEdges(4, true, []graph.Edge{
			{From: 0, To: 1, W: w}, {From: 0, To: 2, W: 4 * w},
			{From: 1, To: 2, W: w}, {From: 2, To: 3, W: 2 * w},
		})
	}
	gA, gB := mk(1), mk(3)
	if gA.WeightFingerprint() == gB.WeightFingerprint() {
		t.Fatal("same-shape different-weight graphs share a fingerprint")
	}

	// A manifest fingerprint from the wrong graph is rejected.
	bM := &Bundle{
		Manifest: Manifest{Name: "g", Version: 2, WeightFP: gA.WeightFingerprint()},
		Graph:    gB,
	}
	if err := Write(&bytes.Buffer{}, bM); !errors.Is(err, ErrInvalid) {
		t.Fatalf("foreign-weights manifest: %v, want ErrInvalid", err)
	}

	// On disk the manifest must carry weight_fp: Read does not fill it,
	// and a manifest without one is rejected even though its shape
	// matches the graph section.
	var gbuf bytes.Buffer
	if err := graph.WriteBinary(&gbuf, gB); err != nil {
		t.Fatal(err)
	}
	noFP := []byte(`{"name":"g","version":2,"vertices":4,"edges":4,"directed":true}`)
	if _, err := Read(bytes.NewReader(frame(t, noFP, gbuf.Bytes()))); !errors.Is(err, ErrInvalid) {
		t.Fatalf("manifest without weight_fp: %v, want ErrInvalid", err)
	}
}

// TestWriteFillsWeightFP: Write stamps the manifest with the graph's
// content fingerprint so every bundle written today pins its weights.
func TestWriteFillsWeightFP(t *testing.T) {
	b := &Bundle{Manifest: Manifest{Name: "g", Version: 1}, Graph: testGraph(t)}
	got, err := Read(bytes.NewReader(encode(t, b)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Manifest.WeightFP == 0 {
		t.Fatal("manifest WeightFP not filled by Write")
	}
	if got.Manifest.WeightFP != got.Graph.WeightFingerprint() {
		t.Fatalf("manifest WeightFP %016x != graph %016x",
			got.Manifest.WeightFP, got.Graph.WeightFingerprint())
	}
}
