package wasp_test

// The serving-path differential table: every way a query can be
// answered — cold, exact cache hit, coalesced singleflight follower,
// cold miss beside a cached source, the Registry's warm Run from a
// Mutate repair seed, relabeled deployment, repair-seeded Resume after
// a mutation, and deadline degradation — on directed and undirected
// graphs, through each layer (Session, Pool, Registry) where the path
// exists. Exact answers must match the Dijkstra oracle bit for bit;
// degraded answers must pass the upper-bound certificate.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"wasp"
	"wasp/internal/baseline/dijkstra"
	"wasp/internal/verify"
)

const servingN = 200

var (
	allLayers     = []string{"session", "pool", "registry"}
	sharedLayers  = []string{"pool", "registry"}
	registryLayer = []string{"registry"}
)

func TestServingPaths(t *testing.T) {
	paths := []struct {
		name   string
		layers []string
		check  func(t *testing.T, layer string, g *wasp.Graph)
	}{
		{"cold", allLayers, servingCold},
		{"hit", sharedLayers, servingHit},
		{"coalesced", sharedLayers, servingCoalesced},
		{"cached-miss", sharedLayers, servingCachedMiss},
		{"mutate-warm", registryLayer, servingMutateWarm},
		{"relabeled", registryLayer, servingRelabeled},
		{"repair-seeded", allLayers, servingRepairSeeded},
		{"seed-rejected", allLayers, servingSeedRejected},
		{"degraded", allLayers, servingDegraded},
	}
	for _, p := range paths {
		for _, layer := range p.layers {
			for _, directed := range []bool{true, false} {
				name := p.name + "/" + layer + "/undirected"
				if directed {
					name = p.name + "/" + layer + "/directed"
				}
				t.Run(name, func(t *testing.T) {
					p.check(t, layer, servingGraph(directed))
				})
			}
		}
	}
}

// servingGraph is a random graph with a weighted spine from vertex 0,
// so most vertices are reachable and distances are nontrivial.
func servingGraph(directed bool) *wasp.Graph {
	r := rand.New(rand.NewSource(17))
	var edges []wasp.Edge
	for i := 1; i < servingN-5; i++ {
		edges = append(edges, wasp.Edge{From: wasp.Vertex(i - 1), To: wasp.Vertex(i), W: 1 + uint32(r.Intn(20))})
	}
	for i := 0; i < 2*servingN; i++ {
		u, v := wasp.Vertex(r.Intn(servingN)), wasp.Vertex(r.Intn(servingN))
		if u != v {
			edges = append(edges, wasp.Edge{From: u, To: v, W: 1 + uint32(r.Intn(30))})
		}
	}
	return wasp.FromEdges(servingN, directed, edges)
}

// servingFront is one serving layer reduced to its two solve verbs,
// plus Mutate on the registry layer.
type servingFront struct {
	run    func(context.Context, wasp.Vertex) (*wasp.Result, error)
	resume func(context.Context, *wasp.Checkpoint) (*wasp.Result, error)
	mutate func(context.Context, []wasp.Mutation) error // registry only
}

// frontConfig carries the per-path extras a layer is built with.
type frontConfig struct {
	cache   *wasp.Cache
	onSolve func(wasp.SolveObservation)
	bundle  func(*wasp.Bundle) // registry only: artifacts added before Load
}

func newFront(t *testing.T, layer string, g *wasp.Graph, fc frontConfig) servingFront {
	t.Helper()
	opt := wasp.Options{Workers: 2}
	pconf := wasp.PoolOptions{Sessions: 2, QueueDepth: 16, QueueWait: 10 * time.Second, OnSolve: fc.onSolve}
	closeCtx := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), 10*time.Second)
	}
	switch layer {
	case "session":
		sess, err := wasp.NewSession(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		return servingFront{run: sess.Run, resume: sess.Resume}
	case "pool":
		pconf.Cache = fc.cache
		p, err := wasp.NewPool(g, opt, pconf)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := closeCtx()
			defer cancel()
			_ = p.Close(ctx)
		})
		return servingFront{run: p.Run, resume: p.Resume}
	case "registry":
		r := wasp.NewRegistry(wasp.RegistryOptions{
			Options:      opt,
			Pool:         pconf,
			Cache:        fc.cache,
			DrainTimeout: 10 * time.Second,
		})
		t.Cleanup(func() {
			ctx, cancel := closeCtx()
			defer cancel()
			_ = r.Close(ctx)
		})
		b := &wasp.Bundle{Manifest: wasp.BundleManifest{Name: "g", Version: 1}, Graph: g}
		if fc.bundle != nil {
			fc.bundle(b)
		}
		if err := r.Load(context.Background(), b); err != nil {
			t.Fatal(err)
		}
		return servingFront{
			run: func(ctx context.Context, src wasp.Vertex) (*wasp.Result, error) {
				return r.Run(ctx, "g", src)
			},
			resume: func(ctx context.Context, cp *wasp.Checkpoint) (*wasp.Result, error) {
				return r.Resume(ctx, "g", cp)
			},
			mutate: func(ctx context.Context, batch []wasp.Mutation) error {
				_, _, err := r.Mutate(ctx, "g", batch)
				return err
			},
		}
	}
	t.Fatalf("unknown layer %q", layer)
	return servingFront{}
}

// requireExact fails unless res is a complete answer bit-identical to
// the Dijkstra oracle on g from src.
func requireExact(t *testing.T, res *wasp.Result, err error, g *wasp.Graph, src wasp.Vertex) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("exact path returned an incomplete result")
	}
	if err := verify.Equal(res.Dist, dijkstra.Distances(g, src)); err != nil {
		t.Fatal(err)
	}
}

// waitUntil polls cond for up to 5 seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func servingCold(t *testing.T, layer string, g *wasp.Graph) {
	f := newFront(t, layer, g, frontConfig{})
	res, err := f.run(context.Background(), 0)
	requireExact(t, res, err, g, 0)
}

func servingHit(t *testing.T, layer string, g *wasp.Graph) {
	cache := wasp.NewCache(wasp.CacheOptions{})
	f := newFront(t, layer, g, frontConfig{cache: cache})
	ctx := context.Background()
	if _, err := f.run(ctx, 0); err != nil {
		t.Fatal(err)
	}
	res, err := f.run(ctx, 0)
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats %+v, want 1 hit / 1 miss", st)
	}
	requireExact(t, res, err, g, 0)
	// Hits are served without a copy: both share the entry's read-only
	// array (no row here serves a relabeled version, whose answers are
	// translated into a fresh array per caller).
	again, err := f.run(ctx, 0)
	requireExact(t, again, err, g, 0)
	if &res.Dist[0] != &again.Dist[0] {
		t.Fatal("two hits returned distinct arrays: the hit path copied")
	}
}

func servingCoalesced(t *testing.T, layer string, g *wasp.Graph) {
	cache := wasp.NewCache(wasp.CacheOptions{})
	release := make(chan struct{})
	// OnSolve runs before the flight publishes, so blocking in it holds
	// the leader's flight open while the follower arrives.
	f := newFront(t, layer, g, frontConfig{cache: cache, onSolve: func(wasp.SolveObservation) { <-release }})
	ctx := context.Background()

	var wg sync.WaitGroup
	var leaderErr, followerErr error
	var follower *wasp.Result
	wg.Add(2)
	go func() { defer wg.Done(); _, leaderErr = f.run(ctx, 0) }()
	waitUntil(t, "leader miss", func() bool { return cache.Stats().Misses == 1 })
	go func() { defer wg.Done(); follower, followerErr = f.run(ctx, 0) }()
	waitUntil(t, "follower coalesced", func() bool { return cache.Stats().Coalesced == 1 })
	close(release)
	wg.Wait()
	if leaderErr != nil {
		t.Fatal(leaderErr)
	}
	requireExact(t, follower, followerErr, g, 0)
}

// servingCachedMiss: a source the cache does not hold solves cold,
// even with another source's exact answer resident beside it.
func servingCachedMiss(t *testing.T, layer string, g *wasp.Graph) {
	cache := wasp.NewCache(wasp.CacheOptions{})
	f := newFront(t, layer, g, frontConfig{cache: cache})
	ctx := context.Background()
	if _, err := f.run(ctx, 0); err != nil {
		t.Fatal(err)
	}
	res, err := f.run(ctx, 3)
	if st := cache.Stats(); st.WarmStarts != 0 || st.ColdStarts != 2 {
		t.Fatalf("cache stats %+v, want 0 warm starts and 2 cold starts", st)
	}
	requireExact(t, res, err, g, 3)
}

// servingMutateWarm: Mutate repairs the retiring version's cached
// answer into a seed for its successor, and the next Run of that
// source resumes from it instead of solving cold.
func servingMutateWarm(t *testing.T, layer string, g *wasp.Graph) {
	cache := wasp.NewCache(wasp.CacheOptions{})
	f := newFront(t, layer, g, frontConfig{cache: cache})
	ctx := context.Background()
	if _, err := f.run(ctx, 0); err != nil {
		t.Fatal(err)
	}
	batch := servingMutation(t, g)
	ng, _, err := wasp.ApplyMutations(g, batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.mutate(ctx, batch); err != nil {
		t.Fatal(err)
	}
	res, err := f.run(ctx, 0)
	requireExact(t, res, err, ng, 0)
	if st := cache.Stats(); st.WarmStarts != 1 {
		t.Fatalf("cache stats %+v, want 1 warm start: the repair seed did not seed the solve", st)
	}
}

func servingRelabeled(t *testing.T, layer string, g *wasp.Graph) {
	f := newFront(t, layer, g, frontConfig{bundle: func(b *wasp.Bundle) {
		b.Graph, b.Relabel = wasp.RelabelByDegree(g)
	}})
	for _, src := range []wasp.Vertex{0, 7} {
		res, err := f.run(context.Background(), src)
		requireExact(t, res, err, g, src)
	}
}

// servingMutation returns a mixed batch valid against g: one weight
// raise, one delete and one insert, on distinct vertex pairs.
func servingMutation(t *testing.T, g *wasp.Graph) []wasp.Mutation {
	t.Helper()
	touched := map[[2]wasp.Vertex]bool{}
	touch := func(u, v wasp.Vertex) bool {
		if touched[[2]wasp.Vertex{u, v}] || touched[[2]wasp.Vertex{v, u}] {
			return false
		}
		touched[[2]wasp.Vertex{u, v}] = true
		return true
	}
	var batch []wasp.Mutation
	for _, u := range []wasp.Vertex{0, 10} {
		nbrs, ws := g.OutNeighbors(u)
		for i, v := range nbrs {
			if !touch(u, v) {
				continue
			}
			if u == 0 {
				batch = append(batch, wasp.Mutation{Kind: wasp.MutSetWeight, From: u, To: v, W: ws[i] + 7})
			} else {
				batch = append(batch, wasp.Mutation{Kind: wasp.MutDelete, From: u, To: v})
			}
			break
		}
	}
	for v := wasp.Vertex(servingN - 1); v > 2; v-- {
		_, fwd := g.FindEdge(2, v)
		_, back := g.FindEdge(v, 2)
		if !fwd && !back && touch(2, v) {
			batch = append(batch, wasp.Mutation{Kind: wasp.MutInsert, From: 2, To: v, W: 1})
			break
		}
	}
	if len(batch) != 3 {
		t.Fatalf("built %d of 3 mutations", len(batch))
	}
	return batch
}

func servingRepairSeeded(t *testing.T, layer string, g *wasp.Graph) {
	ng, delta, err := wasp.ApplyMutations(g, servingMutation(t, g))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := delta.Seed(0, dijkstra.Distances(g, 0))
	if err != nil {
		t.Fatal(err)
	}
	f := newFront(t, layer, ng, frontConfig{})
	res, err := f.resume(context.Background(), cp)
	requireExact(t, res, err, ng, 0)
}

// servingSeedRejected: a seed that cannot belong to the serving graph
// fails fast — a nil checkpoint, a malformed prior, a repair seed for
// the post-mutation graph handed to a layer still serving the
// pre-mutation one, or a seed with no content fingerprint — and
// nothing it would have produced reaches the cache.
func servingSeedRejected(t *testing.T, layer string, g *wasp.Graph) {
	_, delta, err := wasp.ApplyMutations(g, servingMutation(t, g))
	if err != nil {
		t.Fatal(err)
	}
	prior := dijkstra.Distances(g, 0)
	if _, err := delta.Seed(0, prior[:4]); err == nil {
		t.Error("Seed accepted a short prior")
	}
	if _, err := delta.Seed(3, prior); err == nil {
		t.Error("Seed accepted a prior with a nonzero source distance")
	}
	cp, err := delta.Seed(0, prior)
	if err != nil {
		t.Fatal(err)
	}
	cache := wasp.NewCache(wasp.CacheOptions{})
	stale := newFront(t, layer, g, frontConfig{cache: cache})
	ctx := context.Background()
	if _, err := stale.resume(ctx, nil); err == nil {
		t.Error("Resume accepted a nil checkpoint")
	}
	if _, err := stale.resume(ctx, cp); err == nil {
		t.Error("pre-mutation graph accepted a post-mutation repair seed")
	}

	// Exact distances on a same-shape copy with one edge made cheaper,
	// stripped of their fingerprint: they undercut g's true distances,
	// so resuming them on g would converge to wrong answers, and only
	// the missing fingerprint tells them from a seed taken on g.
	v := heavyNeighbor(t, g)
	reweighted, _, err := wasp.ApplyMutations(g, []wasp.Mutation{{Kind: wasp.MutSetWeight, From: 0, To: v, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	noFP := &wasp.Checkpoint{
		GraphVertices: reweighted.NumVertices(),
		GraphEdges:    reweighted.NumEdges(),
		Directed:      reweighted.Directed(),
		Dist:          dijkstra.Distances(reweighted, 0),
	}
	if !undercuts(noFP.Dist, prior) {
		t.Fatal("the re-weighted seed does not undercut g's distances")
	}
	if _, err := stale.resume(ctx, noFP); err == nil {
		t.Error("Resume accepted a fingerprint-less seed from a same-shape re-weighted graph")
	}
	if st := cache.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Errorf("cache stats %+v after rejected seeds, want nothing cached", st)
	}
}

// undercuts reports whether some label of seed lies below the true
// distance — a seed no repair scan can recover from, since labels only
// ever decrease.
func undercuts(seed, truth []uint32) bool {
	for i, d := range seed {
		if d < truth[i] {
			return true
		}
	}
	return false
}

// heavyNeighbor returns a neighbor v of vertex 0 whose edge (0, v)
// weighs more than 1, so re-weighting it to 1 shortens d(0, v).
func heavyNeighbor(t *testing.T, g *wasp.Graph) wasp.Vertex {
	t.Helper()
	nbrs, ws := g.OutNeighbors(0)
	for i, v := range nbrs {
		if ws[i] > 1 {
			return v
		}
	}
	t.Fatal("every out-edge of vertex 0 already weighs 1")
	return 0
}

func servingDegraded(t *testing.T, layer string, g *wasp.Graph) {
	f := newFront(t, layer, g, frontConfig{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := f.run(ctx, 0)
	if layer == "session" {
		// A bare session reports the expiry; the pool layers turn it into
		// a degraded success.
		if !errors.Is(err, wasp.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want ErrCancelled wrapping DeadlineExceeded", err)
		}
	} else if err != nil {
		t.Fatalf("degraded query returned error %v", err)
	}
	if res == nil || res.Complete {
		t.Fatalf("result %+v, want a partial snapshot", res)
	}
	if err := verify.UpperBound(g, 0, res.Dist); err != nil {
		t.Fatal(err)
	}
}
