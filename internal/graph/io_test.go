package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestTextRoundTripDirected(t *testing.T) {
	g := diamond(true)
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestTextRoundTripUndirected(t *testing.T) {
	g := diamond(false)
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestReadTextNoHeader(t *testing.T) {
	in := "# comment\n0 1 5\n1 2 7\n\n"
	g, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 || !g.Directed() {
		t.Fatalf("got %v", g)
	}
}

func TestReadTextDefaultWeight(t *testing.T) {
	g, err := ReadText(strings.NewReader("0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	_, w := g.OutNeighbors(0)
	if w[0] != 1 {
		t.Fatalf("default weight = %d, want 1", w[0])
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"n\n",          // bad header
		"0\n",          // too few fields
		"x 1 2\n",      // bad vertex
		"0 y 2\n",      // bad vertex
		"0 1 zz\n",     // bad weight
		"n notanint\n", // bad count
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

// TestReadTextRejectsMalformed covers the hardened validation: every
// rejected input must fail with an error naming the offending line, so
// a bad row in a million-edge file is findable.
func TestReadTextRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
		line string // expected "line N" fragment in the error
	}{
		{"bad header count", "n zero directed\n", "line 1"},
		{"header count too small", "n 0 directed\n", "line 1"},
		{"weight equal to infinity", "n 3 directed\n0 1 4294967295\n", "line 2"},
		{"weight above uint32", "n 3 directed\n0 1 4294967296\n", "line 2"},
		{"endpoint at declared count", "n 3 directed\n0 3 1\n", "line 2"},
		{"source beyond declared count", "n 3 directed\n# ok line\n7 1 1\n", "line 3"},
		{"truncated edge line", "n 3 directed\n0 1 1\n2\n", "line 3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadText(strings.NewReader(c.in))
			if err == nil {
				t.Fatalf("input %q: expected error", c.in)
			}
			if !strings.Contains(err.Error(), c.line) {
				t.Fatalf("error %q does not name %s", err, c.line)
			}
		})
	}
}

// Weights just below the sentinel remain legal.
func TestReadTextMaxFiniteWeight(t *testing.T) {
	g, err := ReadText(strings.NewReader("n 2 directed\n0 1 4294967294\n"))
	if err != nil {
		t.Fatal(err)
	}
	_, w := g.OutNeighbors(0)
	if w[0] != Infinity-1 {
		t.Fatalf("weight = %d, want %d", w[0], uint32(Infinity-1))
	}
}

// TestBinaryRoundTripDirected: a dump is its header and the out-CSR
// alone, and ReadBinary derives the in-lists Builder built.
func TestBinaryRoundTripDirected(t *testing.T) {
	g := diamond(true)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	if want := 36 + 8*(g.NumVertices()+1) + 8*int(g.NumEdges()); buf.Len() != want {
		t.Fatalf("dump is %d bytes, want %d", buf.Len(), want)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestBinaryRoundTripUndirected(t *testing.T) {
	g := diamond(false)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	if want := 36 + 8*(g.NumVertices()+1) + 8*int(g.NumEdges()); buf.Len() != want {
		t.Fatalf("dump is %d bytes, want %d", buf.Len(), want)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("NOPE1234"))); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestBinaryTruncated(t *testing.T) {
	g := diamond(true)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("expected error for truncated input")
	}
}

func assertGraphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() {
		t.Fatalf("vertex counts differ: %d vs %d", a.NumVertices(), b.NumVertices())
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	if a.Directed() != b.Directed() {
		t.Fatalf("directedness differs")
	}
	for u := 0; u < a.NumVertices(); u++ {
		ad, aw := a.OutNeighbors(Vertex(u))
		bd, bw := b.OutNeighbors(Vertex(u))
		if len(ad) != len(bd) {
			t.Fatalf("vertex %d degree differs: %d vs %d", u, len(ad), len(bd))
		}
		for i := range ad {
			if ad[i] != bd[i] || aw[i] != bw[i] {
				t.Fatalf("vertex %d edge %d differs: (%d,%d) vs (%d,%d)",
					u, i, ad[i], aw[i], bd[i], bw[i])
			}
		}
		as, axw := a.InNeighbors(Vertex(u))
		bs, bxw := b.InNeighbors(Vertex(u))
		if len(as) != len(bs) {
			t.Fatalf("vertex %d in-degree differs", u)
		}
		for i := range as {
			if as[i] != bs[i] || axw[i] != bxw[i] {
				t.Fatalf("vertex %d in-edge %d differs", u, i)
			}
		}
	}
}
