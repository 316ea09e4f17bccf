package wasp

import (
	"fmt"
	"testing"
	"time"

	"wasp/internal/core"
	"wasp/internal/metrics"
	"wasp/internal/parallel"
	"wasp/internal/verify"
)

// TestSolveOnceTrippedToken hands every algorithm an already-tripped
// token on an undirected and a directed graph. Each must return
// promptly with the source settled and every finite distance a valid
// upper bound. A pre-cancelled RunContext short-circuits before any
// solver starts, so this is where each solver's entry-time cancellation
// is pinned: solveOnce for every algorithm but AlgoWasp, and for
// AlgoWasp the preallocated solver a session runs it on. The subtest
// names keep their "pruning=false" suffix from when the table also
// covered pendant pruning.
func TestSolveOnceTrippedToken(t *testing.T) {
	undirected, err := GenerateWorkload("mawi", WorkloadConfig{N: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	directed, err := GenerateWorkload("twitter", WorkloadConfig{N: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, gc := range []struct {
		name string
		g    *Graph
		src  Vertex
	}{
		{"undirected", undirected, Stats(undirected).MaxDegreeV},
		{"directed", directed, SourceInLargestComponent(directed, 1)},
	} {
		for a := Algorithm(0); a < numAlgorithms; a++ {
			t.Run(fmt.Sprintf("%s-%s-pruning=false", gc.name, a), func(t *testing.T) {
				opt := Options{Algorithm: a, Workers: 3, Delta: 8}.withDefaults()
				tok := new(parallel.Token)
				tok.Cancel()
				done := make(chan []uint32, 1)
				go func() {
					if a == AlgoWasp {
						done <- core.NewSolver(gc.g, coreOptions(opt, nil, nil)).Solve(gc.src, tok).Dist
						return
					}
					d, _ := solveOnce(gc.g, gc.src, opt, metrics.NewSet(opt.Workers), tok)
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
