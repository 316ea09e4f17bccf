package wasp_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"wasp"
)

func TestRunManyMatchesSingleRuns(t *testing.T) {
	g, _ := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 1500, Seed: 21})
	sources := []wasp.Vertex{0, 7, 42, 100}
	batch, err := wasp.RunMany(g, sources, wasp.Options{
		Algorithm: wasp.AlgoWasp, Workers: 2, Delta: 4, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(sources) {
		t.Fatalf("got %d results", len(batch))
	}
	for i, s := range sources {
		single, err := wasp.Run(g, s, wasp.Options{Algorithm: wasp.AlgoDijkstra})
		if err != nil {
			t.Fatal(err)
		}
		for v := range single.Dist {
			if batch[i].Dist[v] != single.Dist[v] {
				t.Fatalf("source %d: d(%d) = %d, want %d", s, v, batch[i].Dist[v], single.Dist[v])
			}
		}
	}
}

func TestRunManyOtherAlgorithms(t *testing.T) {
	g, _ := wasp.GenerateWorkload("urand", wasp.WorkloadConfig{N: 1000, Seed: 5})
	batch, err := wasp.RunMany(g, []wasp.Vertex{1, 2}, wasp.Options{
		Algorithm: wasp.AlgoGAP, Workers: 2, Delta: 16,
	})
	if err != nil || len(batch) != 2 {
		t.Fatalf("batch = %v, %v", batch, err)
	}
	want, _ := wasp.Run(g, 1, wasp.Options{Algorithm: wasp.AlgoDijkstra})
	for v := range want.Dist {
		if batch[0].Dist[v] != want.Dist[v] {
			t.Fatalf("d(%d) mismatch", v)
		}
	}
}

func TestRunManyErrors(t *testing.T) {
	if _, err := wasp.RunMany(nil, []wasp.Vertex{0}, wasp.Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := wasp.FromEdges(2, true, []wasp.Edge{{From: 0, To: 1, W: 1}})
	if _, err := wasp.RunMany(g, []wasp.Vertex{5}, wasp.Options{}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestRunManyEmptySources(t *testing.T) {
	g := wasp.FromEdges(2, true, []wasp.Edge{{From: 0, To: 1, W: 1}})
	batch, err := wasp.RunMany(g, nil, wasp.Options{})
	if err != nil || len(batch) != 0 {
		t.Fatalf("empty batch: %v, %v", batch, err)
	}
}

// checkCancelledBatch asserts the documented RunManyContext error
// contract after a cancelled batch: every result but the last is a
// completed solve, the last is the interrupted solve's non-nil partial
// snapshot with Complete unset, and the error wraps ErrCancelled.
func checkCancelledBatch(t *testing.T, results []*wasp.Result, err error, maxSources int) {
	t.Helper()
	if !errors.Is(err, wasp.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if len(results) == 0 || len(results) > maxSources {
		t.Fatalf("cancelled batch returned %d results for %d sources", len(results), maxSources)
	}
	for i, r := range results[:len(results)-1] {
		if r == nil || !r.Complete {
			t.Fatalf("prefix result %d not complete: %+v", i, r)
		}
	}
	last := results[len(results)-1]
	if last == nil {
		t.Fatal("interrupted solve's partial result missing")
	}
	if last.Complete {
		t.Fatal("interrupted solve reported Complete")
	}
	if last.Dist == nil {
		t.Fatal("interrupted solve carries no distance snapshot")
	}
}

// TestRunManyContextMidBatchCancel: a timer-cancelled context stops the
// batch mid-flight; the completed prefix plus the interrupted partial
// come back on both the preallocated Wasp path and the baseline path
// (a per-source solve without preallocation, inside the same session
// body). Timing decides where the cut lands, so
// the test accepts any cut point — what is pinned is the shape of the
// result slice and, for Wasp, that partial distances stay upper bounds.
func TestRunManyContextMidBatchCancel(t *testing.T) {
	g, err := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: 30000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	src := wasp.SourceInLargestComponent(g, 1)
	ref, err := wasp.Run(g, src, wasp.Options{Algorithm: wasp.AlgoDijkstra})
	if err != nil {
		t.Fatal(err)
	}
	sources := []wasp.Vertex{src, src, src, src, src, src}

	for _, tc := range []struct {
		name string
		opt  wasp.Options
	}{
		{"wasp", wasp.Options{Algorithm: wasp.AlgoWasp, Workers: 2, Delta: 16}},
		{"baseline", wasp.Options{Algorithm: wasp.AlgoGAP, Workers: 2, Delta: 16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Calibrate the timeout to land inside the batch: one solve,
			// then ~2.5 solves' worth of budget.
			one, err := wasp.Run(g, src, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			budget := 5 * one.Elapsed / 2
			if budget <= 0 {
				budget = time.Millisecond
			}
			ctx, cancel := context.WithTimeout(context.Background(), budget)
			defer cancel()
			results, err := wasp.RunManyContext(ctx, g, sources, tc.opt)
			if err == nil {
				// The whole batch beat the timer: legal, nothing to assert
				// about cancellation.
				if len(results) != len(sources) {
					t.Fatalf("uncancelled batch returned %d/%d results", len(results), len(sources))
				}
				t.Skip("batch finished before the timer; cancellation not exercised")
			}
			checkCancelledBatch(t, results, err, len(sources))
			for _, r := range results[:len(results)-1] {
				for v := range ref.Dist {
					if r.Dist[v] != ref.Dist[v] {
						t.Fatalf("completed prefix result wrong: d(%d) = %d, want %d", v, r.Dist[v], ref.Dist[v])
					}
				}
			}
			last := results[len(results)-1]
			for v := range ref.Dist {
				if last.Dist[v] < ref.Dist[v] {
					t.Fatalf("partial d(%d) = %d below true distance %d", v, last.Dist[v], ref.Dist[v])
				}
			}
		})
	}
}

// TestRunManyContextPreCancelled is the deterministic cut: an already
// cancelled context yields exactly one result — the first solve's
// partial snapshot — on both paths, mirroring what a single RunContext
// call would return.
func TestRunManyContextPreCancelled(t *testing.T) {
	g, err := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 1200, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		opt  wasp.Options
	}{
		{"wasp", wasp.Options{Algorithm: wasp.AlgoWasp, Workers: 2}},
		{"baseline", wasp.Options{Algorithm: wasp.AlgoGAP, Workers: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			results, err := wasp.RunManyContext(ctx, g, []wasp.Vertex{0, 1, 2}, tc.opt)
			checkCancelledBatch(t, results, err, 3)
			if len(results) != 1 {
				t.Fatalf("pre-cancelled batch returned %d results, want 1", len(results))
			}
			if results[0].Dist[0] != 0 {
				t.Fatalf("partial d(source) = %d", results[0].Dist[0])
			}
		})
	}
}

// TestRunManyResultsIndependent: batch results must not alias the
// session's reused distance array — each result owns its distances.
func TestRunManyResultsIndependent(t *testing.T) {
	g := wasp.FromEdges(3, false, []wasp.Edge{
		{From: 0, To: 1, W: 4}, {From: 1, To: 2, W: 6},
	})
	results, err := wasp.RunMany(g, []wasp.Vertex{0, 2}, wasp.Options{Algorithm: wasp.AlgoWasp})
	if err != nil {
		t.Fatal(err)
	}
	if &results[0].Dist[0] == &results[1].Dist[0] {
		t.Fatal("batch results share the session's distance storage")
	}
	if results[0].Dist[2] != 10 || results[1].Dist[0] != 10 {
		t.Fatalf("distances wrong: %v / %v", results[0].Dist, results[1].Dist)
	}
}

func TestRunManyCollectsMetrics(t *testing.T) {
	g, _ := wasp.GenerateWorkload("urand", wasp.WorkloadConfig{N: 800, Seed: 9})
	batch, err := wasp.RunMany(g, []wasp.Vertex{0, 1}, wasp.Options{Algorithm: wasp.AlgoWasp, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batch {
		if r.Metrics == nil || r.Metrics.Relaxations == 0 {
			t.Fatalf("result %d missing metrics", i)
		}
	}
}
