package wasp_test

// The incremental crossover: after a small batch of edge mutations,
// repairing the previous solution beats re-solving from scratch. Run
// with
//
//	go test -run='^$' -bench='Incremental' -benchmem .
//
// and compare IncrementalUpdate/batch=N against IncrementalFresh;
// results are pinned in BENCH_incremental.json. The acceptance bar:
// the update path wins for small batches (1 and 16 edges) on the
// road-usa workload class; by a few hundred mutated edges the
// invalidated cone approaches the whole graph and the advantage
// drains away — that crossover is the point of the measurement, not a
// defect.

import (
	"context"
	"runtime"
	"testing"

	"wasp"
)

// incrBenchBatch picks `size` distinct stored edges by walking
// vertices outward from a fixed offset and bumps each weight by one —
// an increase-only batch, the expensive repair direction (every
// mutation carves an invalidation cone; a decrease-only batch would
// let the repair path skip invalidation entirely and flatter the
// numbers).
func incrBenchBatch(b *testing.B, g *wasp.Graph, size int) []wasp.Mutation {
	b.Helper()
	type key struct{ u, v wasp.Vertex }
	canon := func(u, v wasp.Vertex) key {
		if !g.Directed() && u > v {
			u, v = v, u
		}
		return key{u, v}
	}
	touched := make(map[key]bool, size)
	batch := make([]wasp.Mutation, 0, size)
	for u := wasp.Vertex(1); int(u) < g.NumVertices() && len(batch) < size; u += 7 {
		nbrs, ws := g.OutNeighbors(u)
		for i, v := range nbrs {
			if len(batch) >= size {
				break
			}
			k := canon(u, v)
			if touched[k] {
				continue
			}
			touched[k] = true
			batch = append(batch, wasp.Mutation{
				Kind: wasp.MutSetWeight, From: u, To: v, W: ws[i] + 1,
			})
		}
	}
	if len(batch) < size {
		b.Fatalf("found only %d of %d edges to mutate", len(batch), size)
	}
	return batch
}

func incrBenchOptions() wasp.Options {
	return wasp.Options{
		Algorithm: wasp.AlgoWasp,
		Workers:   runtime.GOMAXPROCS(0),
		Delta:     4,
	}
}

// incrBenchSetup solves the pre-mutation graph once (the prior every
// repair seeds from), applies the batch, and returns a session on the
// mutated graph plus the delta and prior.
func incrBenchSetup(b *testing.B, size int) (*wasp.Session, *wasp.MutationDelta, wasp.Vertex, []uint32) {
	b.Helper()
	g, err := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: 1 << 19, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	src := wasp.SourceInLargestComponent(g, 42)
	base, err := wasp.NewSession(g, incrBenchOptions())
	if err != nil {
		b.Fatal(err)
	}
	res, err := base.Run(context.Background(), src)
	if err != nil {
		b.Fatal(err)
	}
	prior := append([]uint32(nil), res.Dist...)

	_, delta, err := wasp.ApplyMutations(g, incrBenchBatch(b, g, size))
	if err != nil {
		b.Fatal(err)
	}
	sess, err := wasp.NewSession(delta.Graph(), incrBenchOptions())
	if err != nil {
		b.Fatal(err)
	}
	return sess, delta, src, prior
}

// BenchmarkIncrementalFresh is the baseline the update path races:
// a full from-scratch solve on the post-mutation graph (batch size is
// irrelevant to a cold solve; 16 keeps the graph identical to the
// matching update rung).
func BenchmarkIncrementalFresh(b *testing.B) {
	sess, _, src, _ := incrBenchSetup(b, 16)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Run(ctx, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalUpdate measures the full update path per batch
// size: cone invalidation over the prior (Delta.Seed) plus the warm
// repair solve, exactly what Registry.Mutate pays per harvested cache
// entry and what a post-PATCH query pays to get an exact answer.
func BenchmarkIncrementalUpdate(b *testing.B) {
	for _, size := range []int{1, 16, 256} {
		b.Run(benchBatchName(size), func(b *testing.B) {
			sess, delta, src, prior := incrBenchSetup(b, size)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cp, err := delta.Seed(src, prior)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sess.Resume(ctx, cp)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Complete {
					b.Fatal("incomplete incremental solve")
				}
			}
		})
	}
}

// BenchmarkIncrementalApply isolates the ApplyMutations rebuild itself —
// validating the batch and merging it into a fresh canonical CSR —
// the fixed cost every mutation pays before any repair runs.
func BenchmarkIncrementalApply(b *testing.B) {
	g, err := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: 1 << 19, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	batch := incrBenchBatch(b, g, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wasp.ApplyMutations(g, batch); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBatchName(size int) string {
	switch size {
	case 1:
		return "batch=1"
	case 16:
		return "batch=16"
	default:
		return "batch=256"
	}
}
