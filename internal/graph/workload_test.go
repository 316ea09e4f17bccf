package graph_test

import (
	"slices"
	"testing"

	"wasp/internal/gen"
	"wasp/internal/graph"
)

func generate(tb testing.TB, name string, n int) *graph.Graph {
	tb.Helper()
	spec, err := gen.Lookup(name)
	if err != nil {
		tb.Fatal(err)
	}
	return spec.Gen(gen.Config{N: n, Seed: 1})
}

// TestRelabelByDegreeMatchesStableSort: RelabelByDegree's counting sort
// gives the permutation a stable sort by descending out-degree gives,
// ties in ascending old id, on a skewed, a star and a grid workload.
func TestRelabelByDegreeMatchesStableSort(t *testing.T) {
	for _, name := range []string{"kron", "mawi", "road-usa"} {
		g := generate(t, name, 1<<12)
		order := make([]graph.Vertex, g.NumVertices())
		for i := range order {
			order[i] = graph.Vertex(i)
		}
		slices.SortStableFunc(order, func(a, b graph.Vertex) int {
			return g.OutDegree(b) - g.OutDegree(a)
		})
		want := make([]graph.Vertex, len(order))
		for newID, old := range order {
			want[old] = graph.Vertex(newID)
		}
		_, got := graph.RelabelByDegree(g)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: oldToNew[%d] = %d, stable sort gives %d", name, v, got[v], want[v])
			}
		}
	}
}
