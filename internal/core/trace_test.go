package core

import (
	"runtime"
	"testing"

	"wasp/internal/gen"
	"wasp/internal/graph"
	"wasp/internal/trace"
)

func TestTraceRecordsSchedulerEvents(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	g, _ := gen.Generate("road-usa", gen.Config{N: 4000, Seed: 3})
	src := graph.SourceInLargestComponent(g, 1)

	// Termination and merge order are deterministic per solve. Bucket
	// advances (folded, up to 64 per event) and idle transitions depend
	// on how steals interleave: on a graph this small a single solve
	// can legitimately see none of one kind, so those are asserted
	// across a handful of solves rather than per solve.
	var advances, idles int
	for try := 0; try < 5; try++ {
		tl := trace.New(4)
		Run(g, src, Options{Workers: 4, Delta: 16, Trace: tl})
		if tl.CountKind(trace.Terminate) != 4 {
			t.Fatalf("terminate events = %d, want one per worker", tl.CountKind(trace.Terminate))
		}
		// The last event of the merged stream must be a termination.
		merged := tl.Merged()
		if merged[len(merged)-1].Kind != trace.Terminate {
			t.Fatalf("last event = %v", merged[len(merged)-1])
		}
		advances += tl.CountKind(trace.BucketAdvance)
		idles += tl.CountKind(trace.IdleEnter)
		if advances > 0 && idles > 0 {
			break
		}
	}
	if advances == 0 {
		t.Fatal("no bucket advances across 5 solves on a road graph")
	}
	if idles == 0 {
		t.Fatal("no idle events across 5 solves (workers 1-3 start empty)")
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	g := graph.FromEdges(2, true, []graph.Edge{{From: 0, To: 1, W: 1}})
	Run(g, 0, Options{Workers: 2}) // nil Trace must be safe
}
