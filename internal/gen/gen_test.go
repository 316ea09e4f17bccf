package gen

import (
	"bytes"
	"testing"
	"testing/quick"

	"wasp/internal/graph"
)

func TestRegistryAllGenerate(t *testing.T) {
	for _, spec := range Registry {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			g := spec.Gen(Config{N: 2000, Seed: 1})
			if g.NumVertices() < 2 {
				t.Fatalf("%s: too few vertices: %d", spec.Name, g.NumVertices())
			}
			if g.NumEdges() == 0 {
				t.Fatalf("%s: no edges", spec.Name)
			}
			if g.Directed() != spec.Directed {
				t.Fatalf("%s: directed = %v, want %v", spec.Name, g.Directed(), spec.Directed)
			}
			// All weights positive (required for SSSP).
			for u := 0; u < g.NumVertices(); u++ {
				_, w := g.OutNeighbors(graph.Vertex(u))
				for _, x := range w {
					if x == 0 {
						t.Fatalf("%s: zero edge weight", spec.Name)
					}
				}
			}
		})
	}
}

// TestGeneratorsMeetGraphInvariants: every generator's graph passes
// ReadBinary's check, so its dump loads and reads back identical.
func TestGeneratorsMeetGraphInvariants(t *testing.T) {
	for _, spec := range Registry {
		g := spec.Gen(Config{N: 600, Seed: 3})
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		read, err := graph.ReadBinary(&buf)
		if err != nil {
			t.Errorf("%s: %v", spec.Name, err)
			continue
		}
		if read.WeightFingerprint() != g.WeightFingerprint() {
			t.Errorf("%s: dump read back as a different graph", spec.Name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, name := range []string{"urand", "kron", "road-usa", "mawi", "friendster"} {
		a, err := Generate(name, Config{N: 1500, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(name, Config{N: 1500, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
			t.Fatalf("%s: same seed produced different graphs", name)
		}
		for u := 0; u < a.NumVertices(); u++ {
			ad, aw := a.OutNeighbors(graph.Vertex(u))
			bd, bw := b.OutNeighbors(graph.Vertex(u))
			if len(ad) != len(bd) {
				t.Fatalf("%s: degree of %d differs", name, u)
			}
			for i := range ad {
				if ad[i] != bd[i] || aw[i] != bw[i] {
					t.Fatalf("%s: adjacency differs at %d", name, u)
				}
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate("urand", Config{N: 1500, Seed: 1})
	b, _ := Generate("urand", Config{N: 1500, Seed: 2})
	if a.NumEdges() == b.NumEdges() {
		// Same edge count is possible; compare adjacency of vertex 0.
		ad, _ := a.OutNeighbors(0)
		bd, _ := b.OutNeighbors(0)
		same := len(ad) == len(bd)
		if same {
			for i := range ad {
				if ad[i] != bd[i] {
					same = false
					break
				}
			}
		}
		if same && len(ad) > 2 {
			t.Fatal("different seeds produced identical neighborhoods")
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("no-such-graph"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Generate("no-such-graph", Config{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestLookupByAbbr(t *testing.T) {
	s, err := Lookup("USA")
	if err != nil || s.Name != "road-usa" {
		t.Fatalf("Lookup(USA) = %v, %v", s.Name, err)
	}
}

func TestNames(t *testing.T) {
	main := Names(false)
	all := Names(true)
	if len(main) != 13 {
		t.Fatalf("main registry has %d entries, want 13 (Table 1)", len(main))
	}
	if len(all) != 22 {
		t.Fatalf("full registry has %d entries, want 22 (Tables 1+4)", len(all))
	}
}

func TestRoadGridStructure(t *testing.T) {
	g := roadGrid(Config{N: 10000, Seed: 3})
	s := graph.ComputeStats(g)
	if s.AvgOutDegree > 6 {
		t.Fatalf("road graph too dense: avg degree %.2f", s.AvgOutDegree)
	}
	if s.MaxOutDegree > 10 {
		t.Fatalf("road graph has hub of degree %d", s.MaxOutDegree)
	}
}

func TestMawiStarStructure(t *testing.T) {
	g := mawiStar(Config{N: 10000, Seed: 3})
	_, hubDeg := g.MaxOutDegree()
	if hubDeg < g.NumVertices()*80/100 {
		t.Fatalf("mawi hub degree %d < 80%% of %d vertices", hubDeg, g.NumVertices())
	}
	leaves := graph.LeafBitmap(g).Count()
	if leaves < g.NumVertices()/2 {
		t.Fatalf("mawi model has only %d leaves out of %d", leaves, g.NumVertices())
	}
}

func TestKronSkew(t *testing.T) {
	g := kronUndirected(Config{N: 1 << 13, Seed: 5})
	s := graph.ComputeStats(g)
	if s.MaxOutDegree < 10*int(s.AvgOutDegree) {
		t.Fatalf("kron not skewed: max %d vs avg %.1f", s.MaxOutDegree, s.AvgOutDegree)
	}
}

func TestKmerLowDegree(t *testing.T) {
	g := kmerChain(Config{N: 8000, Seed: 5})
	s := graph.ComputeStats(g)
	if s.AvgOutDegree > 4 {
		t.Fatalf("kmer model too dense: %.2f", s.AvgOutDegree)
	}
}

func TestHypercubeExactStructure(t *testing.T) {
	g := hypercube(Config{N: 1 << 8, Seed: 1})
	if g.NumVertices() != 256 {
		t.Fatalf("vertices = %d, want 256", g.NumVertices())
	}
	for u := 0; u < g.NumVertices(); u++ {
		if d := g.OutDegree(graph.Vertex(u)); d != 8 {
			t.Fatalf("vertex %d degree %d, want 8", u, d)
		}
	}
}

func TestWeightSchemes(t *testing.T) {
	for _, scheme := range []WeightScheme{WeightUniform, WeightUnit, WeightNormal} {
		w := newWeighter(scheme, 9, 1000, 5000)
		for i := 0; i < 10000; i++ {
			x := w.next()
			if x == 0 {
				t.Fatalf("%v produced zero weight", scheme)
			}
			if scheme == WeightUniform && x > 255 {
				t.Fatalf("uniform weight %d out of [1,255]", x)
			}
			if scheme == WeightUnit && x != 1 {
				t.Fatalf("unit weight %d != 1", x)
			}
		}
		if scheme.String() == "unknown" {
			t.Fatalf("missing name for scheme %d", scheme)
		}
	}
}

// TestWeightsAlwaysPositiveProperty exercises the truncated-normal
// scheme's rejection loop across sigma regimes.
func TestWeightsAlwaysPositiveProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw)%10000 + 10
		m := int(mRaw)%100000 + 10
		w := newWeighter(WeightNormal, seed, n, m)
		for i := 0; i < 100; i++ {
			if w.next() == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryMatchesPaperTables(t *testing.T) {
	// Spot-check paper abbreviations and directedness from Table 1.
	expect := map[string]bool{ // abbr -> directed
		"FT": true, "KV": false, "KR": false, "MW": false, "ML": false,
		"OK": false, "EU": false, "USA": false, "SK": true, "TW": true,
		"UK7": false, "UK6": true, "UR": false,
	}
	for abbr, dir := range expect {
		s, err := Lookup(abbr)
		if err != nil {
			t.Fatalf("missing %s", abbr)
		}
		if s.Directed != dir {
			t.Errorf("%s: directed = %v, want %v", abbr, s.Directed, dir)
		}
		if s.Appendix {
			t.Errorf("%s should be a Table 1 graph", abbr)
		}
	}
}
