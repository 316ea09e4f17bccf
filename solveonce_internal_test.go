package wasp

import (
	"fmt"
	"testing"
	"time"

	"wasp/internal/parallel"
	"wasp/internal/prune"
	"wasp/internal/verify"
)

// TestSolveOnceTrippedToken hands every algorithm an already-tripped
// token, with and without pendant pruning, on an undirected and a
// directed graph. Each must return promptly with the source settled
// and every finite distance a valid upper bound. A pre-cancelled
// RunContext short-circuits before any solver starts, so this is where
// each solver's entry-time cancellation is pinned.
func TestSolveOnceTrippedToken(t *testing.T) {
	undirected, err := GenerateWorkload("mawi", WorkloadConfig{N: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	directed, err := GenerateWorkload("twitter", WorkloadConfig{N: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The star graph's hub keeps pruning live (a leaf source would
	// disable it), so the pruned undirected rows solve a stripped core.
	hub := Stats(undirected).MaxDegreeV
	if p := prune.Prepare(undirected); p.Stripped() == 0 || !p.SourceUsable(hub) {
		t.Fatal("undirected fixture does not exercise pendant pruning")
	}
	for _, gc := range []struct {
		name string
		g    *Graph
		src  Vertex
	}{
		{"undirected", undirected, hub},
		{"directed", directed, SourceInLargestComponent(directed, 1)},
	} {
		for a := Algorithm(0); a < numAlgorithms; a++ {
			for _, pruning := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s-%s-pruning=%t", gc.name, a, pruning), func(t *testing.T) {
					opt := Options{Algorithm: a, Workers: 3, Delta: 8, PendantPruning: pruning}.withDefaults()
					tok := new(parallel.Token)
					tok.Cancel()
					done := make(chan []uint32, 1)
					go func() {
						d, _ := solveOnce(gc.g, gc.src, opt, nil, nil, tok)
						done <- d
					}()
					var d []uint32
					select {
					case d = <-done:
					case <-time.After(5 * time.Second):
						t.Fatal("solve with a tripped token did not return")
					}
					if d[gc.src] != 0 {
						t.Fatalf("d(source) = %d, want 0", d[gc.src])
					}
					if err := verify.UpperBound(gc.g, gc.src, d); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
