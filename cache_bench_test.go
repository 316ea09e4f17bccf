package wasp_test

// The cache staircase: cold solve → nearest-source warm start → exact
// hit, each rung cheaper than the one above. Run with
//
//	go test -run='^$' -bench='CacheCold|WarmNear|CacheHit' -benchmem .
//
// and compare ns/op down the three benchmarks; results are pinned in
// BENCH_cache.json. The acceptance bar: CacheHit at least 50x faster
// than CacheCold, WarmNear measurably faster than CacheCold.

import (
	"context"
	"runtime"
	"testing"

	"wasp"
)

// cacheBenchWorkload builds the staircase's graph: an undirected road
// grid — high diameter, so a nearest-source seed from a one-hop
// neighbor prunes roughly half the relaxation volume of a cold solve
// (the seed settles the cached source's side of the graph exactly).
// Low-diameter expanders do not reward warm seeding — even an exact
// seed's repair scan costs as much as their cold solve — which is why
// the rung is measured on a road network, the workload class result
// caching targets. The size
// matters too: below ~2^18 vertices the solver's fixed bucket-sweep
// overhead drowns the saved relaxations.
func cacheBenchWorkload(b *testing.B) (*wasp.Graph, wasp.Vertex) {
	b.Helper()
	g, err := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: 1 << 19, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	return g, wasp.SourceInLargestComponent(g, 42)
}

func cacheBenchPool(b *testing.B, g *wasp.Graph, cache *wasp.Cache) *wasp.Pool {
	b.Helper()
	p, err := wasp.NewPool(g, wasp.Options{
		Algorithm: wasp.AlgoWasp,
		Workers:   runtime.GOMAXPROCS(0),
		Delta:     4,
	}, wasp.PoolOptions{Cache: cache})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = p.Close(context.Background()) })
	return p
}

// BenchmarkCacheCold is the staircase's baseline: every iteration a
// full from-scratch solve (no cache attached).
func BenchmarkCacheCold(b *testing.B) {
	g, src := cacheBenchWorkload(b)
	p := cacheBenchPool(b, g, nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(ctx, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmNear: every iteration misses (the budget holds exactly
// one entry, so each insert evicts the last) but is seeded from the
// resident neighbor's distances — the nearest-source warm-start path,
// never an exact hit.
func BenchmarkWarmNear(b *testing.B) {
	g, src := cacheBenchWorkload(b)
	nbrs, _ := g.OutNeighbors(src)
	if len(nbrs) < 2 {
		b.Fatal("source has fewer than 2 neighbors")
	}
	entrySize := int64(4*g.NumVertices()) + 256
	cache := wasp.NewCache(wasp.CacheOptions{MaxBytes: entrySize})
	p := cacheBenchPool(b, g, cache)
	ctx := context.Background()
	if _, err := p.Run(ctx, src); err != nil { // prime the single slot
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate between two one-hop neighbors: the queried source is
		// never the resident entry, so every iteration warm-seeds.
		if _, err := p.Run(ctx, nbrs[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := cache.Stats()
	if st.Hits != 0 || st.WarmStarts < int64(b.N) {
		b.Fatalf("staircase rung impure: stats %+v (want 0 hits, >=%d warm starts)", st, b.N)
	}
}

// BenchmarkCacheHit: every iteration served from cache — a map lookup,
// no copy, no session, no solver.
func BenchmarkCacheHit(b *testing.B) {
	g, src := cacheBenchWorkload(b)
	cache := wasp.NewCache(wasp.CacheOptions{})
	p := cacheBenchPool(b, g, cache)
	ctx := context.Background()
	if _, err := p.Run(ctx, src); err != nil { // populate
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(ctx, src); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := cache.Stats(); st.Hits < int64(b.N) {
		b.Fatalf("staircase rung impure: stats %+v (want >=%d hits)", st, b.N)
	}
}
