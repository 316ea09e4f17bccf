// Socialnetwork demonstrates SSSP-based network analysis on a
// skewed-degree social graph (the paper's Twitter/Friendster class):
// weighted hop distances from an influencer account, distance
// distribution, and a closeness-centrality estimate for the highest
// degree accounts — the kind of downstream computation (e.g.
// betweenness centrality, paper §1) that SSSP underpins.
//
// On skewed-degree graphs the paper's key observation is that Wasp runs
// best at Δ=1 — coarsening is unnecessary because the graph itself
// supplies parallelism; the example demonstrates this by sweeping Δ.
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"sort"

	"wasp"
)

func main() {
	n := flag.Int("n", 1<<15, "approximate number of accounts")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker count")
	flag.Parse()

	g, err := wasp.GenerateWorkload("twitter", wasp.WorkloadConfig{N: *n, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	s := wasp.Stats(g)
	fmt.Printf("social graph: %d accounts, %d follows, max degree %d (p99 %d)\n\n",
		s.Vertices, s.Edges, s.MaxOutDegree, s.DegreeP99)

	// Distances from the most-followed account.
	hub := s.MaxDegreeV
	res, err := wasp.Run(g, hub, wasp.Options{
		Algorithm: wasp.AlgoWasp, Workers: *workers, Delta: 1, Verify: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Distance distribution.
	var finite []uint32
	for _, d := range res.Dist {
		if d != wasp.Infinity {
			finite = append(finite, d)
		}
	}
	sort.Slice(finite, func(i, j int) bool { return finite[i] < finite[j] })
	fmt.Printf("influence reach of account %d: %d/%d accounts\n",
		hub, len(finite), s.Vertices)
	for _, q := range []int{50, 90, 99} {
		fmt.Printf("  p%d weighted distance: %d\n", q, finite[len(finite)*q/100])
	}

	// Closeness centrality of the top-degree accounts: n-1 / Σ d(u,v),
	// one SSSP per account.
	type acct struct {
		v   wasp.Vertex
		deg int
	}
	var tops []acct
	for v := 0; v < g.NumVertices(); v++ {
		tops = append(tops, acct{wasp.Vertex(v), g.OutDegree(wasp.Vertex(v))})
	}
	sort.Slice(tops, func(i, j int) bool { return tops[i].deg > tops[j].deg })

	fmt.Println("\ncloseness centrality (top accounts by degree):")
	for _, a := range tops[:5] {
		r, err := wasp.Run(g, a.v, wasp.Options{
			Algorithm: wasp.AlgoWasp, Workers: *workers, Delta: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		var sum, cnt float64
		for _, d := range r.Dist {
			if d != wasp.Infinity && d != 0 {
				sum += float64(d)
				cnt++
			}
		}
		closeness := 0.0
		if sum > 0 {
			closeness = cnt / sum
		}
		fmt.Printf("  account %7d  degree %6d  closeness %.6f  (sssp in %v)\n",
			a.v, a.deg, closeness, r.Elapsed)
	}

	// The Δ sweep: on skewed graphs Δ=1 should be near-optimal for
	// Wasp (paper Fig 4/8), because work-stealing, not coarsening,
	// provides the parallelism.
	fmt.Println("\nΔ sweep (Wasp):")
	for _, delta := range []uint32{1, 8, 64, 512, 4096} {
		r, err := wasp.Run(g, hub, wasp.Options{
			Algorithm: wasp.AlgoWasp, Workers: *workers, Delta: delta,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  Δ=%-5d time %10v  relaxations %d\n",
			delta, r.Elapsed, r.Metrics.Relaxations)
	}
}
