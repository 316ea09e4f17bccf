package graph

import (
	"bytes"
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
