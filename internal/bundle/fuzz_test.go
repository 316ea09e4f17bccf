package bundle

import (
	"bytes"
	"testing"

	"wasp/internal/graph"
)

// FuzzBundleDecode mirrors the checkpoint codec's FuzzDecode for the
// bundle container: an arbitrary byte stream must either decode into a
// bundle that passes full validation or return an error — never panic,
// and never allocate based on unverified header claims. Seeds cover the
// satellite corruption classes: truncations, CRC flips and unknown-flag
// bytes.
func FuzzBundleDecode(f *testing.F) {
	g := graph.FromEdges(3, true, []graph.Edge{
		{From: 0, To: 1, W: 2}, {From: 1, To: 2, W: 3},
	})
	b := &Bundle{
		Manifest: Manifest{Name: "fuzz", Version: 7},
		Graph:    g,
		Relabel:  []graph.Vertex{2, 0, 1},
	}
	var buf bytes.Buffer
	if err := Write(&buf, b); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("WSPB"))
	f.Add(valid[:12])           // header only
	f.Add(valid[:len(valid)/2]) // mid-section truncation
	crcFlip := bytes.Clone(valid)
	crcFlip[len(crcFlip)-1] ^= 0xff // trailing section CRC flipped
	f.Add(crcFlip)
	flagBits := bytes.Clone(valid)
	flagBits[16] ^= 0x02 // first section's flags word: unknown bit
	f.Add(flagBits)
	// Section frame claiming a huge payload with nothing behind it.
	huge := bytes.Clone(valid[:12+16])
	for i := 12 + 8; i < 12+16; i++ {
		huge[i] = 0xfd
	}
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything Read accepts must be internally consistent enough to
		// validate and to re-encode.
		if err := b.Validate(); err != nil {
			t.Fatalf("Read accepted a bundle Validate rejects: %v", err)
		}
		var out bytes.Buffer
		if err := Write(&out, b); err != nil {
			t.Fatalf("re-encode of accepted bundle failed: %v", err)
		}
		if _, err := Read(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-encoded bundle does not decode: %v", err)
		}
	})
}
