package checkpoint

import (
	"bytes"
	"testing"

	"wasp/internal/graph"
)

// FuzzDecode: an arbitrary byte stream must either decode into a
// self-consistent snapshot or return an error — never panic, and never
// allocate based on unverified header claims. Valid inputs must
// re-encode to the identical bytes (the codec is canonical).
func FuzzDecode(f *testing.F) {
	var buf bytes.Buffer
	s := &Snapshot{
		Source:        1,
		GraphVertices: 3,
		GraphEdges:    2,
		Directed:      true,
		WeightFP:      0x5eed,
		Relaxations:   9,
		Dist:          []uint32{0, 5, graph.Infinity},
	}
	if err := s.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("WSCK"))
	f.Add(valid[:headerSize])
	// Header claiming a huge payload with nothing behind it.
	huge := bytes.Clone(valid[:headerSize])
	for i := 16; i < 24; i++ {
		huge[i] = 0xfe
	}
	copy(huge[48:56], huge[16:24])
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(s.Dist) != s.GraphVertices {
			t.Fatalf("decoded %d dist entries for %d vertices", len(s.Dist), s.GraphVertices)
		}
		var out bytes.Buffer
		if err := s.Encode(&out); err != nil {
			t.Fatalf("re-encode of decoded snapshot failed: %v", err)
		}
		// Canonical: decode∘encode is the identity on the consumed
		// prefix (the stream may have trailing bytes Decode ignored).
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("re-encoded bytes differ from the decoded input")
		}
	})
}
