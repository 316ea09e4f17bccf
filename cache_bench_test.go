package wasp_test

// The cache staircase: cold solve → exact hit. Run with
//
//	go test -run='^$' -bench='CacheCold|CacheHit' -benchmem .
//
// and compare ns/op between the two benchmarks; results are pinned in
// BENCH_cache.json. The acceptance bar: CacheHit at least 50x faster
// than CacheCold. A miss solves cold whatever is cached, so the cold
// rung is also the price of every cache miss.

import (
	"context"
	"runtime"
	"testing"

	"wasp"
)

// cacheBenchWorkload builds the staircase's graph: a road network,
// the workload class result caching targets, at 2^19 vertices — large
// enough that a solve is dominated by relaxation work rather than the
// solver's fixed bucket-sweep overhead.
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
