package wasp_test

import (
	"testing"

	"wasp"
)

func TestPendantPruningAllAlgorithms(t *testing.T) {
	g, _ := wasp.GenerateWorkload("mawi", wasp.WorkloadConfig{N: 5000, Seed: 7})
	src := wasp.SourceInLargestComponent(g, 1)
	ref, err := wasp.Run(g, src, wasp.Options{Algorithm: wasp.AlgoDijkstra})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range wasp.Algorithms() {
		algo, _ := wasp.ParseAlgorithm(name)
		res, err := wasp.Run(g, src, wasp.Options{
			Algorithm:      algo,
			Workers:        2,
			Delta:          16,
			PendantPruning: true,
			Verify:         true, // certificate runs against the original graph
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := range res.Dist {
			if res.Dist[v] != ref.Dist[v] {
				t.Fatalf("%s with pruning: d(%d) = %d, want %d", name, v, res.Dist[v], ref.Dist[v])
			}
		}
	}
}

func TestPendantPruningReducesWork(t *testing.T) {
	// On the star graph, pruning strips the spokes, so the solver's
	// relaxation count must collapse.
	g, _ := wasp.GenerateWorkload("mawi", wasp.WorkloadConfig{N: 20000, Seed: 3})
	// Use the hub: a random source is almost surely a pendant leaf, and
	// pruning (correctly) declines to run from a pruned source.
	s := wasp.Stats(g)
	src := s.MaxDegreeV
	plain, err := wasp.Run(g, src, wasp.Options{
		Algorithm: wasp.AlgoWasp, Workers: 1, NoLeafPruning: true, CollectMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := wasp.Run(g, src, wasp.Options{
		Algorithm: wasp.AlgoWasp, Workers: 1, NoLeafPruning: true,
		PendantPruning: true, CollectMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Metrics.Relaxations*2 > plain.Metrics.Relaxations {
		t.Fatalf("pruning barely helped: %d vs %d relaxations",
			pruned.Metrics.Relaxations, plain.Metrics.Relaxations)
	}
}

func TestPendantPruningDirectedNoop(t *testing.T) {
	g, _ := wasp.GenerateWorkload("twitter", wasp.WorkloadConfig{N: 2000, Seed: 5})
	src := wasp.SourceInLargestComponent(g, 1)
	res, err := wasp.Run(g, src, wasp.Options{
		Algorithm: wasp.AlgoWasp, Workers: 2, PendantPruning: true, Verify: true,
	})
	if err != nil || res.Progress.Reached == 0 {
		t.Fatalf("directed pruning noop failed: %v", err)
	}
}
