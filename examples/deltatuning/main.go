// Deltatuning walks through the paper's Δ-tuning methodology (§5,
// Figure 4) as an API recipe: sweep powers of two, watch time and
// redundant work move in opposite directions for the baselines, and
// verify the paper's headline usability claim — for Wasp on a
// skewed-degree graph, Δ=1 is within ~20% of the tuned optimum, so no
// tuning is really needed.
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"wasp"
)

func main() {
	class := flag.String("graph", "twitter", "workload class to tune on")
	n := flag.Int("n", 1<<15, "approximate vertex count")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker count")
	flag.Parse()

	g, err := wasp.GenerateWorkload(*class, wasp.WorkloadConfig{N: *n, Seed: 77})
	if err != nil {
		log.Fatal(err)
	}
	src := wasp.SourceInLargestComponent(g, 1)
	ref, err := wasp.Run(g, src, wasp.Options{Algorithm: wasp.AlgoDijkstra})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tuning on %s: %v\n", *class, wasp.Stats(g))
	fmt.Printf("dijkstra floor: %v, %d relaxations\n\n",
		ref.Elapsed, ref.Metrics.Relaxations)

	sweep := []uint32{1, 4, 16, 64, 256, 1024, 4096, 16384}
	for _, algo := range []wasp.Algorithm{wasp.AlgoWasp, wasp.AlgoGAP, wasp.AlgoGalois} {
		fmt.Printf("%s:\n", algo)
		best, bestDelta := time.Duration(0), uint32(0)
		var deltaOneTime time.Duration
		for _, delta := range sweep {
			res, err := wasp.Run(g, src, wasp.Options{
				Algorithm: algo, Workers: *workers, Delta: delta,
			})
			if err != nil {
				log.Fatal(err)
			}
			ratio := float64(res.Metrics.Relaxations) / float64(ref.Metrics.Relaxations)
			fmt.Printf("  Δ=%-6d %10v   relaxations %.2f× dijkstra\n",
				delta, res.Elapsed, ratio)
			if best == 0 || res.Elapsed < best {
				best, bestDelta = res.Elapsed, delta
			}
			if delta == 1 {
				deltaOneTime = res.Elapsed
			}
		}
		fmt.Printf("  → optimum Δ=%d (%v); Δ=1 costs %.2f× the optimum\n\n",
			bestDelta, best, float64(deltaOneTime)/float64(best))
	}
	fmt.Println("The paper's claim to check: for wasp the last line should stay")
	fmt.Println("near 1.0 on skewed graphs; for the baselines Δ=1 can be ruinous.")
}
