package wasp

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// recordTransitions wires a transition log into conf and returns the
// log. The hook runs under the governor's lock, so reads must wait for
// the driving goroutine to finish — these tests drive synchronously.
func recordTransitions(conf *GovernorConfig) *[]BrownoutTransition {
	log := &[]BrownoutTransition{}
	conf.OnTransition = func(tr BrownoutTransition) { *log = append(*log, tr) }
	return log
}

// TestGovernorLadderMonotone drives the ladder state machine directly
// with a deterministic pressure sequence (bypassing the EWMAs via
// step) and pins the acceptance property: rising pressure walks the
// ladder up one rung per evaluation and never jumps; falling pressure
// walks it back down to BrownoutNone; pressure inside the hysteresis
// band moves nothing.
func TestGovernorLadderMonotone(t *testing.T) {
	conf := GovernorConfig{MinDwell: -1} // dwell off: transitions gate on pressure only
	log := recordTransitions(&conf)
	g := NewGovernor(conf)

	steps := []struct {
		pressure float64
		want     BrownoutLevel
	}{
		{0.10, BrownoutNone},      // calm
		{0.69, BrownoutNone},      // just under enter[1]=0.70
		{0.72, BrownoutCacheOnly}, // cross enter[1]
		{0.72, BrownoutCacheOnly}, // hysteresis: above exit[1], below enter[2]
		{1.00, BrownoutPartial},   // saturated pressure still moves ONE rung
		{1.00, BrownoutShed},      // ...and one more
		{1.00, BrownoutShed},      // top of the ladder
		{0.86, BrownoutShed},      // above exit[3]=0.85: hold
		{0.80, BrownoutPartial},   // below exit[3]: descend one
		{0.72, BrownoutPartial},   // above exit[2]=0.70: hold
		{0.60, BrownoutCacheOnly}, // below exit[2]
		{0.00, BrownoutNone},      // below exit[1]=0.50
		{0.00, BrownoutNone},      // floor of the ladder
	}

	for i, s := range steps {
		g.step(s.pressure)
		if got := g.Level(); got != s.want {
			t.Fatalf("step %d (pressure %.2f): level = %v, want %v", i, s.pressure, got, s.want)
		}
		if p := g.Pressure(); p != s.pressure {
			t.Fatalf("step %d: Pressure() = %v, want %v", i, p, s.pressure)
		}
	}

	// Every recorded transition moved exactly one rung, and the full
	// walk was 0→1→2→3→2→1→0.
	wantWalk := []BrownoutLevel{
		BrownoutCacheOnly, BrownoutPartial, BrownoutShed,
		BrownoutPartial, BrownoutCacheOnly, BrownoutNone,
	}
	if len(*log) != len(wantWalk) {
		t.Fatalf("transitions = %d, want %d (%+v)", len(*log), len(wantWalk), *log)
	}
	for i, tr := range *log {
		if tr.To != wantWalk[i] {
			t.Fatalf("transition %d: %v -> %v, want -> %v", i, tr.From, tr.To, wantWalk[i])
		}
		if d := tr.To - tr.From; d != 1 && d != -1 {
			t.Fatalf("transition %d jumped %d rungs: %+v", i, d, tr)
		}
	}
	if got := g.Stats().Transitions; got != int64(len(wantWalk)) {
		t.Fatalf("Stats().Transitions = %d, want %d", got, len(wantWalk))
	}
}

// TestGovernorDwell: after one transition, a second cannot follow
// within MinDwell even at saturated pressure — the ladder is
// rate-limited in both directions.
func TestGovernorDwell(t *testing.T) {
	g := NewGovernor(GovernorConfig{MinDwell: time.Hour})
	g.step(1.0)
	if got := g.Level(); got != BrownoutCacheOnly {
		t.Fatalf("first step: level = %v, want cache-only", got)
	}
	g.step(1.0)
	g.step(1.0)
	if got := g.Level(); got != BrownoutCacheOnly {
		t.Fatalf("level advanced within MinDwell: %v", got)
	}
	g.step(0.0)
	if got := g.Level(); got != BrownoutCacheOnly {
		t.Fatalf("level descended within MinDwell: %v", got)
	}
}

// TestGovernorRetryAfter: the hint is zero before any solve has been
// observed (callers fall back to their static value), tracks the
// queue-drain estimate (queued+1)·service/slots once solves flow, and
// clamps to MaxRetryAfter.
func TestGovernorRetryAfter(t *testing.T) {
	g := NewGovernor(GovernorConfig{Slots: 2, MaxRetryAfter: 30 * time.Second, MinDwell: -1})
	if ra := g.RetryAfter(); ra != 0 {
		t.Fatalf("RetryAfter before any solve = %v, want 0", ra)
	}

	// Converge the service-time EWMA to ~100ms.
	for i := 0; i < 100; i++ {
		g.observeSolve(100 * time.Millisecond)
	}
	g.observeAttempt(3, 8) // queued=3 recorded for the drain estimate

	// Expected ≈ 0.1s × (3+1) / 2 slots = 200ms, within EWMA rounding.
	ra := g.RetryAfter()
	if ra < 150*time.Millisecond || ra > 250*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want ≈200ms", ra)
	}

	// A tiny ceiling clamps the estimate.
	clamped := NewGovernor(GovernorConfig{Slots: 1, MaxRetryAfter: time.Millisecond, MinDwell: -1})
	for i := 0; i < 100; i++ {
		clamped.observeSolve(time.Second)
	}
	clamped.observeAttempt(10, 16)
	if ra := clamped.RetryAfter(); ra != time.Millisecond {
		t.Fatalf("clamped RetryAfter = %v, want 1ms", ra)
	}
}

// TestGovernorTrafficClockedRecovery: a governor driven to full shed by
// measured queue waits recovers on admission attempts alone — each
// shed attempt decays the queue-delay EWMA toward the expected wait of
// the (now empty) queue, so the ladder descends back to BrownoutNone
// without a single admitted solve. This is the property that makes
// BrownoutShed self-terminating rather than absorbing.
func TestGovernorTrafficClockedRecovery(t *testing.T) {
	g := NewGovernor(GovernorConfig{QueueDelayBudget: 10 * time.Millisecond, MinDwell: -1})
	for i := 0; i < 8; i++ {
		g.observeWait(50 * time.Millisecond) // 5× budget: pressure pins at 1
	}
	if got := g.Level(); got != BrownoutShed {
		t.Fatalf("after sustained waits: level = %v, want shed", got)
	}

	// Pure attempt traffic against an empty queue: no waits, no solves.
	for i := 0; i < 200 && g.Level() != BrownoutNone; i++ {
		g.observeAttempt(0, 8)
	}
	if got := g.Level(); got != BrownoutNone {
		t.Fatalf("governor never recovered: level %v, pressure %.3f", got, g.Pressure())
	}
}

// freezeLevel pins a governor at one ladder rung for the duration of a
// test: an hour of dwell from "now" means no observation can move it.
func freezeLevel(g *Governor, lvl BrownoutLevel) {
	g.mu.Lock()
	g.level.Store(int32(lvl))
	g.lastChange = time.Now()
	g.mu.Unlock()
}

// TestPoolBrownoutCacheOnly: at BrownoutCacheOnly a cache-backed pool
// admits only reuse — exact hits, coalesced followers and misses the
// caller seeds through Resume — and sheds every other miss with
// ErrOverloaded, counting it on both the pool and the cache. The graph
// is an undirected road network, where every miss lies within reach
// of a cached source; the rung sheds them all the same, including one
// a single hop from a cached source.
func TestPoolBrownoutCacheOnly(t *testing.T) {
	g, err := GenerateWorkload("road-usa", WorkloadConfig{N: 1 << 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Workers: 2}
	gov := NewGovernor(GovernorConfig{MinDwell: time.Hour})
	cache := NewCache(CacheOptions{})
	p, err := NewPool(g, opt, PoolOptions{
		Sessions: 1, Cache: cache, CacheScope: "t", Governor: gov,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close(context.Background())
	ctx := context.Background()

	// Populate the cache at full service.
	hot := SourcesInLargestComponent(g, 1, 4)
	cached := make(map[Vertex]bool)
	for _, s := range hot {
		if _, err := p.Run(ctx, s); err != nil {
			t.Fatalf("priming solve from %d: %v", s, err)
		}
		cached[s] = true
	}
	primed := cache.Stats()

	freezeLevel(gov, BrownoutCacheOnly)

	// Exact hit: served.
	res, err := p.Run(ctx, hot[0])
	if err != nil || !res.Complete {
		t.Fatalf("cache hit under brownout: %v, %+v", err, res)
	}

	// Uncached sources, the first one hop from a cached source and the
	// rest uniform: every one would solve cold, so every one sheds.
	var misses []Vertex
	nbrs, _ := g.OutNeighbors(hot[0])
	for _, v := range nbrs {
		if !cached[v] {
			misses = append(misses, v)
			break
		}
	}
	if len(misses) == 0 {
		t.Fatalf("source %d has no uncached neighbor", hot[0])
	}
	r := rand.New(rand.NewSource(1))
	for len(misses) < 16 {
		if v := Vertex(r.Intn(g.NumVertices())); !cached[v] {
			misses = append(misses, v)
		}
	}
	for _, v := range misses {
		if _, err := p.Run(ctx, v); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("miss from %d under brownout: err = %v, want ErrOverloaded", v, err)
		}
	}
	st := cache.Stats()
	if st.ReuseShed != int64(len(misses)) {
		t.Fatalf("cache ReuseShed = %d, want %d", st.ReuseShed, len(misses))
	}
	if got := p.Stats().Shed; got != int64(len(misses)) {
		t.Fatalf("pool Shed = %d, want %d", got, len(misses))
	}
	if st.Misses != primed.Misses {
		t.Fatalf("shed queries led solves: misses %d, want %d", st.Misses, primed.Misses)
	}

	// A miss the caller seeds is reuse: Resume from a checkpoint of an
	// uncached source is served and counted as the one warm start.
	src := misses[1]
	fresh, err := RunContext(ctx, g, src, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err = p.Resume(ctx, stamp(g, uint32(src), fresh.Dist))
	if err != nil || !res.Complete {
		t.Fatalf("caller-seeded miss under brownout: %v, %+v", err, res)
	}
	if !sameDist(res.Dist, fresh.Dist) {
		t.Fatal("caller-seeded miss differs from a fresh solve")
	}
	if got := cache.Stats().WarmStarts; got != 1 {
		t.Fatalf("warm starts = %d, want 1", got)
	}

	// Recovery: back at BrownoutNone a shed source solves.
	freezeLevel(gov, BrownoutNone)
	res, err = p.Run(ctx, misses[0])
	if err != nil || !res.Complete {
		t.Fatalf("shed source after recovery: %v, %+v", err, res)
	}
}

// TestPoolBrownoutShedShedsEverything: BrownoutShed rejects every
// query — even exact cache hits — with ErrOverloaded, and the pool
// recovers the moment the ladder descends.
func TestPoolBrownoutShedShedsEverything(t *testing.T) {
	g := FromEdges(3, true, []Edge{
		{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 1},
	})
	gov := NewGovernor(GovernorConfig{MinDwell: time.Hour})
	cache := NewCache(CacheOptions{})
	p, err := NewPool(g, Options{}, PoolOptions{
		Sessions: 1, Cache: cache, CacheScope: "t", Governor: gov,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close(context.Background())
	ctx := context.Background()

	if _, err := p.Run(ctx, 0); err != nil {
		t.Fatal(err)
	}
	freezeLevel(gov, BrownoutShed)
	if _, err := p.Run(ctx, 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("cached source under shed: err = %v, want ErrOverloaded", err)
	}
	if got := gov.Stats().GovernorSheds; got != 1 {
		t.Fatalf("governor sheds = %d, want 1", got)
	}
	freezeLevel(gov, BrownoutNone)
	if res, err := p.Run(ctx, 0); err != nil || !res.Complete {
		t.Fatalf("after recovery: %v, %+v", err, res)
	}
}

// TestPoolBrownoutPartialClampsDeadline: at BrownoutPartial a pool with
// no deadline of its own solves under the governor's DegradedDeadline
// and returns the partial upper-bound snapshot with a nil error — the
// PR-3 degradation contract, now reachable by overload alone.
func TestPoolBrownoutPartialClampsDeadline(t *testing.T) {
	g, err := GenerateWorkload("kron", WorkloadConfig{N: 1 << 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	gov := NewGovernor(GovernorConfig{MinDwell: time.Hour, DegradedDeadline: time.Nanosecond})
	p, err := NewPool(g, Options{Workers: 2}, PoolOptions{Sessions: 1, Governor: gov})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close(context.Background())

	freezeLevel(gov, BrownoutPartial)
	res, err := p.Run(context.Background(), 0)
	if err != nil {
		t.Fatalf("browned-out solve errored: %v", err)
	}
	if res == nil || res.Complete {
		t.Fatalf("want a degraded partial result, got %+v", res)
	}
	if got := p.Stats().Degraded; got != 1 {
		t.Fatalf("degraded = %d, want 1", got)
	}
}
