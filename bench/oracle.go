package main

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"wasp"
	"wasp/internal/baseline/dijkstra"
)

// maxOracles bounds the Dijkstra solves one correctness check spends:
// sources are sampled until the budget runs out, and every answer for
// a sampled source is checked.
const maxOracles = 32

// answer is one answered query.
type answer struct {
	source, target wasp.Vertex
	dist           uint32
}

// checkRun checks the answers of every phase against the bench's
// shadow copy g of the graph the target serves.
func checkRun(g *wasp.Graph, s schedule, o phases, seed uint64) (int, error) {
	var as []answer
	for _, ph := range []struct {
		ops []op
		out []outcome
	}{{s.Fill, o.fill}, {s.Warmup, o.warm}, {s.Window, o.win}} {
		for i, out := range ph.out {
			if out.Err == nil {
				as = append(as, answer{source: ph.ops[i].Source, target: ph.ops[i].Target, dist: out.Dist})
			}
		}
	}
	return checkAnswers(g, as, seed)
}

// checkAnswers compares answers with Dijkstra distances on g. It
// returns how many answers it checked.
func checkAnswers(g *wasp.Graph, as []answer, seed uint64) (int, error) {
	bySource := map[wasp.Vertex][]answer{}
	for _, a := range as {
		bySource[a.source] = append(bySource[a.source], a)
	}
	sources := make([]wasp.Vertex, 0, len(bySource))
	for s := range bySource {
		sources = append(sources, s)
	}
	slices.Sort(sources)
	r := rand.New(rand.NewPCG(seed, 0x0c1e))
	r.Shuffle(len(sources), func(i, j int) { sources[i], sources[j] = sources[j], sources[i] })

	checked := 0
	for _, s := range sources[:min(maxOracles, len(sources))] {
		d := dijkstra.Distances(g, s)
		for _, a := range bySource[s] {
			if d[a.target] != a.dist {
				return checked, fmt.Errorf("source %d target %d: answered %d, Dijkstra says %d", s, a.target, a.dist, d[a.target])
			}
			checked++
		}
	}
	return checked, nil
}
