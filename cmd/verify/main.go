// Command verify cross-checks SSSP implementations on a graph: it runs
// the selected algorithms, compares every output against sequential
// Dijkstra, and validates the SSSP certificate — the repository's
// correctness tooling packaged as a CLI, in the spirit of the paper
// artifact's validation scripts.
//
// Usage:
//
//	verify -graph kron -n 32768 -workers 8            # all algorithms
//	verify -file road.wspg -algo wasp,gap -trials 5
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"strings"

	"wasp"
	"wasp/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("verify: ")
	var (
		name    = flag.String("graph", "", "workload to generate")
		file    = flag.String("file", "", "graph file to load")
		n       = flag.Int("n", 1<<14, "vertex count for generated workloads")
		seed    = flag.Uint64("seed", 1, "generator / source seed")
		algo    = flag.String("algo", "all", "algorithms to verify, comma separated")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "worker count")
		delta   = flag.Uint("delta", 8, "Δ-coarsening factor")
		trials  = flag.Int("trials", 3, "verification trials per algorithm")
		sources = flag.Int("sources", 2, "number of distinct sources to verify")
	)
	flag.Parse()

	g, err := cli.LoadGraph(*name, *file, *n, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %v\n", wasp.Stats(g))

	var names []string
	if *algo == "all" {
		names = wasp.Algorithms()
	} else {
		names = strings.Split(*algo, ",")
	}

	failures := 0
	for s := 0; s < *sources; s++ {
		src := wasp.SourceInLargestComponent(g, *seed+uint64(s)*7919)
		ref, err := wasp.Run(g, src, wasp.Options{Algorithm: wasp.AlgoDijkstra, Verify: true})
		if err != nil {
			log.Fatalf("dijkstra reference failed: %v", err)
		}
		fmt.Printf("\nsource %d (reaches %d vertices):\n", src, ref.Progress.Reached)
		for _, an := range names {
			a, err := wasp.ParseAlgorithm(strings.TrimSpace(an))
			if err != nil {
				log.Fatal(err)
			}
			ok := true
			for trial := 0; trial < *trials && ok; trial++ {
				res, err := wasp.Run(g, src, wasp.Options{
					Algorithm: a, Workers: *workers, Delta: uint32(*delta),
					Verify: true,
				})
				if err != nil {
					fmt.Printf("  %-12s FAIL: %v\n", a, err)
					ok = false
					break
				}
				for v := range res.Dist {
					if res.Dist[v] != ref.Dist[v] {
						fmt.Printf("  %-12s FAIL: d(%d) = %d, dijkstra %d (trial %d)\n",
							a, v, res.Dist[v], ref.Dist[v], trial)
						ok = false
						break
					}
				}
			}
			if ok {
				fmt.Printf("  %-12s ok (%d trials, certificate valid)\n", a, *trials)
			} else {
				failures++
			}
		}
	}
	if failures > 0 {
		log.Fatalf("%d algorithm/source combinations FAILED", failures)
	}
	fmt.Println("\nall verifications passed")
}
