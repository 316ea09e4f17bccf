package wasp

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// uchain builds an undirected path 0–1–…–n-1 with uniform weight w.
func uchain(n int, w Weight) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{From: Vertex(i), To: Vertex(i + 1), W: w})
	}
	return FromEdges(n, false, edges)
}

// cachedPool builds a single-session pool over g fronted by cache.
func cachedPool(t *testing.T, g *Graph, cache *Cache, conf PoolOptions) *Pool {
	t.Helper()
	conf.Cache = cache
	if conf.Sessions == 0 {
		conf.Sessions = 1
	}
	if conf.QueueDepth == 0 {
		conf.QueueDepth = 64
	}
	if conf.QueueWait == 0 {
		conf.QueueWait = 10 * time.Second
	}
	p, err := NewPool(g, Options{Workers: 2}, conf)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = p.Close(ctx)
	})
	return p
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func sameDist(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCacheHitExact: the golden test for the reuse layer. A repeated
// query is served from cache (no second solve), and the cached
// distances are bit-identical to a fresh from-scratch solve of the
// same query. Hits share one read-only array; a write through it is
// caught by ScrubEntries and answered by a fresh solve.
func TestCacheHitExact(t *testing.T) {
	g := uchain(512, 3)
	cache := NewCache(CacheOptions{})
	var solves int
	p := cachedPool(t, g, cache, PoolOptions{
		OnSolve: func(SolveObservation) { solves++ },
	})
	ctx := context.Background()

	first, err := p.Run(ctx, 7)
	if err != nil {
		t.Fatalf("first Run: %v", err)
	}
	second, err := p.Run(ctx, 7)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}

	// Bit-identical to a fresh solve, not merely "close".
	fresh, err := RunContext(ctx, g, 7, Options{Workers: 2})
	if err != nil {
		t.Fatalf("fresh RunContext: %v", err)
	}
	if !sameDist(second.Dist, fresh.Dist) {
		t.Fatal("cached distances differ from a fresh solve")
	}
	if !sameDist(first.Dist, second.Dist) {
		t.Fatal("hit differs from the solve that populated it")
	}
	if !second.Complete {
		t.Fatal("cache hit not marked Complete")
	}

	// One real solve, one hit.
	if solves != 1 {
		t.Fatalf("%d solves reached the pool, want 1", solves)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if st.HitLatency.Count != 1 {
		t.Fatalf("hit latency histogram count = %d, want 1", st.HitLatency.Count)
	}

	// On a hit this process did no solver work: all of Elapsed is
	// inherited, and there are no work counters.
	if second.PriorElapsed != second.Elapsed {
		t.Fatalf("hit PriorElapsed %v != Elapsed %v", second.PriorElapsed, second.Elapsed)
	}
	if first.Metrics == nil || second.Metrics != nil {
		t.Fatalf("Metrics: miss %v, hit %v; want counters on the miss only", first.Metrics, second.Metrics)
	}

	// Hits share the entry's read-only array: no copy per hit.
	third, err := p.Run(ctx, 7)
	if err != nil {
		t.Fatalf("third Run: %v", err)
	}
	if &second.Dist[0] != &third.Dist[0] {
		t.Fatal("two hits returned distinct arrays: the hit path copied")
	}

	// A caller writing through a shared result breaks the contract; the
	// scrubber's insert-time hash catches it and evicts the entry, so
	// the next query solves again instead of serving the written value.
	second.Dist[0] = 12345
	if scanned, corrupt := cache.ScrubEntries(); scanned != 1 || corrupt != 1 {
		t.Fatalf("ScrubEntries = scanned %d, corrupt %d; want 1, 1", scanned, corrupt)
	}
	fourth, err := p.Run(ctx, 7)
	if err != nil {
		t.Fatalf("fourth Run: %v", err)
	}
	if solves != 2 {
		t.Fatalf("%d solves after the scrub evicted the entry, want 2", solves)
	}
	if !sameDist(fourth.Dist, fresh.Dist) {
		t.Fatal("re-solve after the scrub differs from a fresh solve")
	}
}

// TestCacheMissSolvesCold: the cache never seeds a miss from another
// source's entry. Whatever is cached, a query it does not hold solves
// cold on every configuration — including an undirected Wasp pool,
// three hops from a cached source — with the exact answer, zero
// WarmStarts, and no warm-start validation error for a seed the caller
// never gave.
func TestCacheMissSolvesCold(t *testing.T) {
	cases := []struct {
		name  string
		graph *Graph
		opt   Options
		conf  CacheOptions
	}{
		{"dijkstra", uchain(64, 2), Options{Algorithm: AlgoDijkstra}, CacheOptions{}},
		{"directed graph", chain(64, 2), Options{Workers: 2}, CacheOptions{}},
		{"undirected wasp", uchain(64, 2), Options{Workers: 2}, CacheOptions{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cache := NewCache(tc.conf)
			conf := PoolOptions{Cache: cache, QueueDepth: 8, QueueWait: 10 * time.Second}
			p, err := NewPool(tc.graph, tc.opt, conf)
			if err != nil {
				t.Fatalf("NewPool: %v", err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				_ = p.Close(ctx)
			}()
			ctx := context.Background()
			if _, err := p.Run(ctx, 0); err != nil {
				t.Fatalf("priming Run: %v", err)
			}
			res, err := p.Run(ctx, 3) // near the cached source, still a cold miss
			if err != nil {
				t.Fatalf("second Run: %v", err)
			}
			fresh, err := RunContext(ctx, tc.graph, 3, tc.opt)
			if err != nil {
				t.Fatalf("fresh RunContext: %v", err)
			}
			if !sameDist(res.Dist, fresh.Dist) {
				t.Fatal("cold-miss distances differ from a fresh solve")
			}
			st := cache.Stats()
			if st.WarmStarts != 0 {
				t.Fatalf("WarmStarts = %d, want 0", st.WarmStarts)
			}
			if st.ColdStarts != 2 || st.Misses != 2 {
				t.Fatalf("stats = %+v, want 2 cold misses", st)
			}
		})
	}
}

// TestCacheLRUEviction: the memory budget holds by evicting the least
// recently used entry, and an evicted query misses again.
func TestCacheLRUEviction(t *testing.T) {
	n := 16
	entrySize := int64(4*n) + 160 // mirrors the cache's accounting
	g := chain(n, 1)
	cache := NewCache(CacheOptions{MaxBytes: 2*entrySize + 10})
	p := cachedPool(t, g, cache, PoolOptions{})
	ctx := context.Background()

	for _, src := range []Vertex{0, 1, 2} {
		if _, err := p.Run(ctx, src); err != nil {
			t.Fatalf("Run(%d): %v", src, err)
		}
	}
	st := cache.Stats()
	if st.Evicted != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 evicted / 2 resident", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("resident %d bytes exceeds budget %d", st.Bytes, st.MaxBytes)
	}

	// Source 0 was the LRU tail: it must miss. Sources 1 and 2 remain.
	if _, err := p.Run(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if hits := cache.Stats().Hits; hits != 1 {
		t.Fatalf("Hits = %d after re-querying a resident source, want 1", hits)
	}
	if _, err := p.Run(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("stats = %+v: evicted source did not miss", st)
	}
}

// TestCacheOversizeServedNotStored: a result larger than the whole
// budget is returned to the caller but never admitted.
func TestCacheOversizeServedNotStored(t *testing.T) {
	g := uchain(256, 1)
	cache := NewCache(CacheOptions{MaxBytes: 64}) // smaller than one entry
	p := cachedPool(t, g, cache, PoolOptions{})
	res, err := p.Run(context.Background(), 0)
	if err != nil || !res.Complete {
		t.Fatalf("Run: %v (complete %v)", err, res != nil && res.Complete)
	}
	if st := cache.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversize result was stored: %+v", st)
	}
}

// TestCacheSingleflight: K concurrent identical queries run exactly
// one solve; followers share the leader's result. The OnSolve hook —
// which runs synchronously before the flight publishes — doubles as a
// deterministic gate holding the flight open while followers arrive.
func TestCacheSingleflight(t *testing.T) {
	const followers = 4
	g := uchain(256, 2)
	cache := NewCache(CacheOptions{})
	release := make(chan struct{})
	var solves int
	p := cachedPool(t, g, cache, PoolOptions{
		Sessions: 2, // room to prove coalescing isn't just session contention
		OnSolve: func(SolveObservation) {
			solves++
			<-release
		},
	})
	ctx := context.Background()

	results := make([]*Result, followers+1)
	errs := make([]error, followers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); results[0], errs[0] = p.Run(ctx, 9) }()

	// The leader's flight is registered before its solve starts; wait
	// for the miss so followers cannot race ahead of it.
	waitFor(t, "leader miss", func() bool { return cache.Stats().Misses == 1 })
	for i := 1; i <= followers; i++ {
		i := i
		wg.Add(1)
		go func() { defer wg.Done(); results[i], errs[i] = p.Run(ctx, 9) }()
	}
	waitFor(t, "followers coalesced", func() bool {
		return cache.Stats().Coalesced == followers
	})
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i := 1; i < len(results); i++ {
		if !sameDist(results[i].Dist, results[0].Dist) {
			t.Fatalf("caller %d got different distances than the leader", i)
		}
	}
	if solves != 1 {
		t.Fatalf("%d solves for %d concurrent identical queries, want 1", solves, followers+1)
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Coalesced != followers || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 1 miss / %d coalesced / 0 hits", st, followers)
	}
}

// TestCacheInvalidateScope: invalidation drops exactly the named
// scope's entries and marks its in-flight solves do-not-store.
func TestCacheInvalidateScope(t *testing.T) {
	g := uchain(64, 2)
	cache := NewCache(CacheOptions{})
	pa := cachedPool(t, g, cache, PoolOptions{CacheScope: "a"})
	pb := cachedPool(t, g, cache, PoolOptions{CacheScope: "b"})
	ctx := context.Background()

	if _, err := pa.Run(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Run(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if dropped := cache.InvalidateScope("a"); dropped != 1 {
		t.Fatalf("InvalidateScope dropped %d entries, want 1", dropped)
	}
	if st := cache.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d after invalidating one of two scopes, want 1", st.Entries)
	}
	// Scope b survives (hit); scope a re-misses.
	if _, err := pb.Run(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if hits := cache.Stats().Hits; hits != 1 {
		t.Fatalf("Hits = %d, want 1 (scope b resident)", hits)
	}
	if _, err := pa.Run(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 3 {
		t.Fatalf("Misses = %d, want 3 (scope a re-missed)", st.Misses)
	}
}

// TestCacheInvalidateScopeMidFlight: a solve in flight when its scope
// is invalidated completes for its caller but is not stored.
func TestCacheInvalidateScopeMidFlight(t *testing.T) {
	g := uchain(64, 2)
	cache := NewCache(CacheOptions{})
	inSolve := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	p := cachedPool(t, g, cache, PoolOptions{
		CacheScope: "a",
		OnSolve: func(SolveObservation) {
			once.Do(func() { close(inSolve) })
			<-release
		},
	})
	ctx := context.Background()

	done := make(chan struct{})
	var res *Result
	var err error
	go func() { defer close(done); res, err = p.Run(ctx, 0) }()
	<-inSolve // the solve finished but the flight hasn't published or stored yet
	if dropped := cache.InvalidateScope("a"); dropped != 0 {
		t.Fatalf("dropped %d entries, want 0 (nothing stored yet)", dropped)
	}
	close(release)
	<-done

	if err != nil || !res.Complete {
		t.Fatalf("Run: %v (complete %v)", err, res != nil && res.Complete)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("invalidated-mid-flight solve was stored: %+v", st)
	}
}

// TestCachePoolResume: Resume on a cache-backed pool stores its result
// like Run, serves repeat queries from cache, and still rejects
// checkpoints whose content fingerprint belongs to another graph.
func TestCachePoolResume(t *testing.T) {
	n := 64
	g := uchain(n, 2)
	cache := NewCache(CacheOptions{})
	var solves int
	p := cachedPool(t, g, cache, PoolOptions{
		OnSolve: func(SolveObservation) { solves++ },
	})
	ctx := context.Background()

	seed := make([]uint32, n)
	for i := range seed {
		seed[i] = Infinity
	}
	seed[5] = 0
	cp := &Checkpoint{
		Source:        5,
		GraphVertices: n,
		GraphEdges:    g.NumEdges(),
		Directed:      false,
		WeightFP:      g.WeightFingerprint(),
		Dist:          seed,
	}
	res, err := p.Resume(ctx, cp)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	fresh, err := RunContext(ctx, g, 5, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sameDist(res.Dist, fresh.Dist) {
		t.Fatal("resumed distances differ from a fresh solve")
	}

	// The stored result now serves both Run and Resume without a solve.
	if _, err := p.Run(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Resume(ctx, cp); err != nil {
		t.Fatal(err)
	}
	if solves != 1 {
		t.Fatalf("%d solves, want 1 (both repeats were hits)", solves)
	}
	if st := cache.Stats(); st.Hits != 2 {
		t.Fatalf("Hits = %d, want 2", st.Hits)
	}

	// A checkpoint from a same-shape different-weight graph is refused
	// before any cache or admission work.
	other := uchain(n, 9)
	bad := &Checkpoint{
		Source:        5,
		GraphVertices: n,
		GraphEdges:    other.NumEdges(),
		Directed:      false,
		WeightFP:      other.WeightFingerprint(),
		Dist:          append([]uint32(nil), seed...),
	}
	if _, err := p.Resume(ctx, bad); err == nil {
		t.Fatal("Resume accepted a checkpoint fingerprinted for another graph")
	}
}

// TestCacheRunAfterCloseRefuses: the close contract holds on a
// cache-backed pool — once Close has begun, Run and Resume return
// ErrPoolClosed even when the answer is resident in the cache and
// could be served without a session.
func TestCacheRunAfterCloseRefuses(t *testing.T) {
	n := 64
	g := uchain(n, 2)
	cache := NewCache(CacheOptions{})
	p := cachedPool(t, g, cache, PoolOptions{})
	ctx := context.Background()

	res, err := p.Run(ctx, 0)
	if err != nil || !res.Complete {
		t.Fatalf("Run: %v (complete %v)", err, res != nil && res.Complete)
	}
	if st := cache.Stats(); st.Entries != 1 {
		t.Fatalf("Entries = %d, want 1", st.Entries)
	}
	if err := p.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := p.Run(ctx, 0); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Run after Close = %v, want ErrPoolClosed (hit was resident)", err)
	}
	cp := &Checkpoint{
		Source:        0,
		GraphVertices: n,
		GraphEdges:    g.NumEdges(),
		Directed:      false,
		WeightFP:      g.WeightFingerprint(),
		Dist:          append([]uint32(nil), res.Dist...),
	}
	if _, err := p.Resume(ctx, cp); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Resume after Close = %v, want ErrPoolClosed", err)
	}
	// The entry itself is untouched — a fresh pool on the same cache
	// serves it as a hit.
	p2 := cachedPool(t, g, cache, PoolOptions{})
	res2, err := p2.Run(ctx, 0)
	if err != nil || !sameDist(res2.Dist, res.Dist) {
		t.Fatalf("fresh pool after close: %v", err)
	}
	if st := cache.Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("stats after close %+v, want 1 entry 1 hit", st)
	}
}

// TestElapsedAccounting pins the satellite contract: Result.Elapsed is
// cumulative across warm starts with PriorElapsed carrying the
// inherited portion, while the pool's observation hook and latency
// ring see in-process time only.
func TestElapsedAccounting(t *testing.T) {
	n := 64
	g := uchain(n, 2)
	prior := time.Hour
	var hook SolveObservation
	p, err := NewPool(g, Options{}, PoolOptions{
		QueueWait: 10 * time.Second,
		OnSolve:   func(o SolveObservation) { hook = o },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = p.Close(ctx)
	}()

	seed := make([]uint32, n)
	for i := range seed {
		seed[i] = Infinity
	}
	seed[0] = 0
	cp := &Checkpoint{
		Source:        0,
		GraphVertices: n,
		GraphEdges:    g.NumEdges(),
		WeightFP:      g.WeightFingerprint(),
		Elapsed:       prior,
		Dist:          seed,
	}
	res, err := p.Resume(context.Background(), cp)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}

	if res.PriorElapsed != prior {
		t.Fatalf("PriorElapsed = %v, want %v", res.PriorElapsed, prior)
	}
	if res.Elapsed < prior {
		t.Fatalf("Elapsed = %v not cumulative (prior %v)", res.Elapsed, prior)
	}
	inProcess := res.Elapsed - res.PriorElapsed
	if inProcess <= 0 || inProcess > time.Minute {
		t.Fatalf("in-process component %v implausible", inProcess)
	}

	// The hook and the latency ring never include inherited time.
	if hook.Elapsed >= prior || hook.Elapsed > time.Minute {
		t.Fatalf("OnSolve Elapsed = %v leaked inherited time", hook.Elapsed)
	}
	if p50, _ := p.Stats().P50, p.Stats().P99; p50 >= prior {
		t.Fatalf("latency ring P50 = %v leaked inherited time", p50)
	}
}

// TestCacheOverlayMutateNoStaleResults: the mutation analogue of the
// hot-swap stale-read test above. A mutated graph advances the content
// fingerprint, so a pre-mutation cache entry must be unreachable for
// post-mutation queries even when two pools share one cache under the
// SAME scope — the keying, not the scope hygiene, is the correctness
// boundary.
func TestCacheOverlayMutateNoStaleResults(t *testing.T) {
	const n = 32
	cache := NewCache(CacheOptions{})
	ctx := context.Background()

	g := uchain(n, 1)
	pre := cachedPool(t, g, cache, PoolOptions{CacheScope: "shared"})

	res, err := pre.Run(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[n-1] != uint32(n-1) {
		t.Fatalf("pre-mutation dist[%d] = %d, want %d", n-1, res.Dist[n-1], n-1)
	}
	if _, err := pre.Run(ctx, 0); err != nil { // hit
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("pre-mutation stats = %+v, want 1 hit / 1 miss", st)
	}

	// Same shape, same scope, one weight changed: the next query must
	// NOT see the cached pre-mutation distances.
	mutated, _, err := ApplyMutations(g, []Mutation{{Kind: MutSetWeight, From: 0, To: 1, W: 5}})
	if err != nil {
		t.Fatal(err)
	}
	post := cachedPool(t, mutated, cache, PoolOptions{CacheScope: "shared"})
	res, err = post.Run(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Dist[n-1], uint32(5+(n-2)); got != want {
		t.Fatalf("post-mutation dist[%d] = %d, want %d (stale pre-mutation result served)", n-1, got, want)
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("post-mutation stats = %+v: mutated-graph query did not miss", st)
	}

	// And the pre-mutation snapshot still hits its own entry: both
	// results stay resident under distinct fingerprints.
	if _, err := pre.Run(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 hits and 2 resident entries", st)
	}
}

// TestCacheRegistryMutateWarmHarvest: Registry.Mutate harvests the
// retiring version's complete cached results and repairs them into
// warm seeds for the successor — the first post-mutation query for a
// previously hot source warm-starts instead of solving cold, and the
// old version's entries are invalidated with the swap.
func TestCacheRegistryMutateWarmHarvest(t *testing.T) {
	const n = 32
	cache := NewCache(CacheOptions{})
	r := NewRegistry(RegistryOptions{
		Pool:         PoolOptions{Sessions: 2, QueueDepth: 64, QueueWait: 5 * time.Second},
		DrainTimeout: 10 * time.Second,
		Cache:        cache,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	}()
	ctx := context.Background()

	if err := r.Load(ctx, &Bundle{Manifest: BundleManifest{Name: "g", Version: 1}, Graph: uchain(n, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ctx, "g", 0); err != nil { // populate v1's cache entry
		t.Fatal(err)
	}

	version, _, err := r.Mutate(ctx, "g", []Mutation{{Kind: MutSetWeight, From: 0, To: 1, W: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 {
		t.Fatalf("version = %d, want 2", version)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d after mutate, want 0 (v1 scope invalidated)", st.Entries)
	}

	res, err := r.Run(ctx, "g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Dist[n-1], uint32(7+(n-2)); got != want {
		t.Fatalf("post-mutation dist[%d] = %d, want %d", n-1, got, want)
	}
	st := cache.Stats()
	if st.WarmStarts != 1 {
		t.Fatalf("stats = %+v: post-mutation query did not resume from the harvested seed", st)
	}
}
