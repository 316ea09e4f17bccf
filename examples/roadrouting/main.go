// Roadrouting demonstrates the paper's headline scenario for Wasp:
// large-diameter, low-degree road networks, where synchronous
// Δ-stepping pays one barrier per bucket and Wasp's barrier-free
// asynchrony wins (paper §5.1 "Road networks", >30× over GBBS).
//
// The example generates a Road-USA-style grid workload, runs Wasp and
// the synchronous baselines, and reports times, synchronous step
// counts, and the work-efficiency ratio against Dijkstra.
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"

	"wasp"
)

func main() {
	n := flag.Int("n", 1<<16, "approximate number of road intersections")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker count")
	delta := flag.Uint("delta", 64, "Δ-coarsening factor")
	flag.Parse()

	g, err := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: *n, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	s := wasp.Stats(g)
	fmt.Printf("road network: %d intersections, %d road segments, avg degree %.2f\n\n",
		s.Vertices, s.Edges/2, s.AvgOutDegree)

	src := wasp.SourceInLargestComponent(g, 7)

	ref, err := wasp.Run(g, src, wasp.Options{Algorithm: wasp.AlgoDijkstra})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %10s %8s %12s\n", "algorithm", "time", "steps", "relax/dijkstra")
	fmt.Printf("%-12s %10v %8s %12s\n", "dijkstra", ref.Elapsed, "-", "1.00")

	for _, algo := range []wasp.Algorithm{
		wasp.AlgoWasp, wasp.AlgoGAP, wasp.AlgoGBBS,
		wasp.AlgoDeltaStar, wasp.AlgoGalois,
	} {
		res, err := wasp.Run(g, src, wasp.Options{
			Algorithm: algo,
			Workers:   *workers,
			Delta:     uint32(*delta),
			Verify:    true,
		})
		if err != nil {
			log.Fatal(err)
		}
		steps := "-"
		if res.Steps > 0 {
			steps = fmt.Sprint(res.Steps)
		}
		ratio := float64(res.Metrics.Relaxations) / float64(ref.Metrics.Relaxations)
		fmt.Printf("%-12s %10v %8s %12.2f\n", algo, res.Elapsed, steps, ratio)
	}

	fmt.Println("\nAll outputs verified against the SSSP certificate.")
	fmt.Println("Note: the synchronous implementations' step counts are the barrier")
	fmt.Println("rounds the paper's Figure 1 attributes road-graph overhead to.")
}
