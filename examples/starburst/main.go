// Starburst reproduces the paper's Mawi pathology (§5.1): a network-
// traffic graph whose structure is one hub connected to 93% of all
// vertices, 99% of those being degree-1 leaves. A single thread
// processing the hub's neighborhood serializes the whole computation —
// unless the neighborhood is decomposed across workers and the leaves
// are pruned from scheduling, which is exactly what Wasp's §4.4
// optimizations do (the paper reports 20–381× over baselines without a
// pull-step).
//
// The example runs Wasp with the optimizations individually toggled
// (Figure 7's ablation on this graph) and a baseline for contrast.
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"

	"wasp"
)

func main() {
	n := flag.Int("n", 1<<16, "approximate number of hosts")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker count")
	flag.Parse()

	g, err := wasp.GenerateWorkload("mawi", wasp.WorkloadConfig{N: *n, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	s := wasp.Stats(g)
	fmt.Printf("traffic graph: %d hosts, hub degree %d (%.0f%% of hosts), %d SP-tree leaves\n\n",
		s.Vertices, s.MaxOutDegree,
		100*float64(s.MaxOutDegree)/float64(s.Vertices), s.SPTreeLeaves)

	src := wasp.SourceInLargestComponent(g, 3)

	type cfg struct {
		label string
		opt   wasp.Options
	}
	cases := []cfg{
		{"BASE (no optimizations)", wasp.Options{
			NoLeafPruning: true, NoDecomposition: true, NoBidirectional: true}},
		{"LP (leaf pruning)", wasp.Options{
			NoDecomposition: true, NoBidirectional: true}},
		{"ND (nbhd decomposition)", wasp.Options{
			NoLeafPruning: true, NoBidirectional: true}},
		{"OPT (all optimizations)", wasp.Options{}},
	}
	fmt.Printf("%-26s %12s %14s %10s\n", "wasp variant", "time", "relaxations", "steals")
	for _, c := range cases {
		c.opt.Algorithm = wasp.AlgoWasp
		c.opt.Workers = *workers
		c.opt.Delta = 8
		c.opt.Theta = 1 << 10 // decompose the hub aggressively at this scale
		c.opt.Verify = true
		res, err := wasp.Run(g, src, c.opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s %12v %14d %10d\n",
			c.label, res.Elapsed, res.Metrics.Relaxations, res.Metrics.StealHits)
	}

	// Contrast with a baseline that has no answer to the hub.
	res, err := wasp.Run(g, src, wasp.Options{
		Algorithm: wasp.AlgoMultiQueue, Workers: *workers,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-26s %12v %14d\n", "multiqueue (baseline)", res.Elapsed, res.Metrics.Relaxations)
	fmt.Println("\nWith decomposition, the hub's neighborhood is split into range chunks")
	fmt.Println("that thieves steal from the current bucket; with leaf pruning, the")
	fmt.Println("degree-1 hosts are relaxed once and never scheduled.")
}
