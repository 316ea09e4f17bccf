package gen

import (
	"wasp/internal/graph"
	"wasp/internal/rng"
)

// RMAT/Kronecker generator (Leskovec et al.), the model behind the GAP
// suite's Kron graph and a good structural stand-in for Twitter-like
// social graphs and web crawls: heavily skewed degree distribution and
// a small diameter. Probabilities follow the Graph500 parameters
// (a=0.57, b=0.19, c=0.19, d=0.05).

func rmatEdges(n, m int, seed uint64) []graph.Edge {
	levels := 0
	for 1<<(levels+1) <= n {
		levels++
	}
	size := 1 << levels
	r := rng.NewXoshiro256(seed)
	edges := make([]graph.Edge, 0, m)
	const (
		a = 0.57
		b = 0.19
		c = 0.19
	)
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for bit := size / 2; bit >= 1; bit /= 2 {
			p := r.Float64()
			switch {
			case p < a:
				// top-left quadrant
			case p < a+b:
				v += bit
			case p < a+b+c:
				u += bit
			default:
				u += bit
				v += bit
			}
		}
		if u == v {
			continue
		}
		edges = append(edges, graph.Edge{From: graph.Vertex(u), To: graph.Vertex(v)})
	}
	return edges
}

func kron(cfg Config, directed bool) *graph.Graph {
	n, edges := kronEdges(cfg, directed)
	return graph.FromEdges(n, directed, edges)
}

// kronEdges returns kron's vertex count and weighted edge stream, the
// list it hands to the builder, parallel edges included.
func kronEdges(cfg Config, directed bool) (int, []graph.Edge) {
	cfg = normalize(cfg, 1<<15, 16)
	levels := 0
	for 1<<(levels+1) <= cfg.N {
		levels++
	}
	n := 1 << levels
	m := n * cfg.Degree
	if !directed {
		m /= 2
	}
	edges := rmatEdges(n, m, cfg.Seed)
	w := newWeighter(cfg.Weight, cfg.Seed, n, len(edges))
	for i := range edges {
		edges[i].W = w.next()
	}
	return n, edges
}

// kronUndirected models Kron and uk-2007 class graphs.
func kronUndirected(cfg Config) *graph.Graph { return kron(cfg, false) }

// kronDirected models Twitter-class directed social graphs.
func kronDirected(cfg Config) *graph.Graph { return kron(cfg, true) }

// webCrawl models sk-2005 / uk-union / webbase: directed, RMAT-skewed
// plus "site-local" chains that give web graphs their locality.
func webCrawl(cfg Config) *graph.Graph {
	cfg = normalize(cfg, 1<<15, 16)
	levels := 0
	for 1<<(levels+1) <= cfg.N {
		levels++
	}
	n := 1 << levels
	m := n * cfg.Degree * 3 / 4
	edges := rmatEdges(n, m, cfg.Seed)
	// Site-locality: every vertex links to its successor, forming long
	// intra-site chains (high locality, raises the diameter slightly).
	for u := 0; u+1 < n; u++ {
		edges = append(edges, graph.Edge{From: graph.Vertex(u), To: graph.Vertex(u + 1)})
	}
	w := newWeighter(cfg.Weight, cfg.Seed, n, len(edges))
	for i := range edges {
		edges[i].W = w.next()
	}
	return graph.FromEdges(n, true, edges)
}
