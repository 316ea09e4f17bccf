package gen

import (
	"testing"

	"wasp/internal/graph"
	"wasp/internal/rng"
)

// buildInput is one edge list a generator hands to graph.Builder.
type buildInput struct {
	name     string
	n        int
	directed bool
	edges    []graph.Edge
}

// buildInputs returns the edge lists four generators hand to the
// builder at 2^16 vertices. kron and twitter take kronEdges' stream as
// it is: RMAT sampling repeats pairs, so Build folds parallel arcs.
// roadGrid adds each edge once, in ascending (source, target) order,
// which is the order of its graph's edges (u, v), u < v. uniformRandom
// adds its edges in random order and repeats about 0.01% of them; its
// graph's edges in a fixed random order stand in for that stream.
func buildInputs() []buildInput {
	cfg := Config{N: 1 << 16, Seed: 1}
	road := roadGrid(cfg)
	urand := edgeList(uniformRandom(cfg))
	r := rng.NewXoshiro256(1)
	for i := len(urand) - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		urand[i], urand[j] = urand[j], urand[i]
	}
	kronN, kron := kronEdges(cfg, false)
	twitterN, twitter := kronEdges(cfg, true)
	return []buildInput{
		{"road-usa", road.NumVertices(), false, edgeList(road)},
		{"urand", cfg.N, false, urand},
		{"kron", kronN, false, kron},
		{"twitter", twitterN, true, twitter},
	}
}

// edgeList returns the edges (u, v), u < v, of the undirected graph g
// in ascending order.
func edgeList(g *graph.Graph) []graph.Edge {
	var edges []graph.Edge
	for u := 0; u < g.NumVertices(); u++ {
		dst, w := g.OutNeighbors(graph.Vertex(u))
		for i, v := range dst {
			if graph.Vertex(u) < v {
				edges = append(edges, graph.Edge{From: graph.Vertex(u), To: v, W: w[i]})
			}
		}
	}
	return edges
}

// BenchmarkBuild times graph.Builder.Build alone on buildInputs;
// filling the Builder is outside the timer. Run it with -benchmem: B/op
// is the build's whole working set, scratch and the returned graph.
// folded-arcs counts the arcs that parallel edges folded away.
func BenchmarkBuild(b *testing.B) {
	for _, in := range buildInputs() {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			var g *graph.Graph
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bld := graph.NewBuilder(in.n, in.directed)
				bld.Grow(len(in.edges))
				bld.AddEdges(in.edges)
				b.StartTimer()
				g = bld.Build()
			}
			arcs := int64(len(in.edges))
			if !in.directed {
				arcs *= 2
			}
			b.ReportMetric(float64(arcs-g.NumEdges()), "folded-arcs")
		})
	}
}
