package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"wasp/internal/baseline/dijkstra"
	"wasp/internal/gen"
	"wasp/internal/graph"
	"wasp/internal/metrics"
	"wasp/internal/parallel"
	"wasp/internal/trace"
	"wasp/internal/verify"
)

// This file is the observability race suite: every test attaches a
// live trace.Log and metrics.Set (the collectors behind the public
// wasp.Observer) while the scheduler does something adversarial —
// steals under every policy, gets cancelled mid-flight, or is
// checkpointed concurrently. CI runs the package under -race; the
// per-worker buffers are unsynchronized by design, so these tests are
// the proof that "one writer per buffer" actually holds.

// TestObservedSolveMatrix runs every steal policy with tracing,
// metrics and timing all live, and checks both the answer and the
// observability invariants (one terminate per worker, counters
// populated, tier hits consistent with the policy).
func TestObservedSolveMatrix(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	g, err := gen.Generate("road-usa", gen.Config{N: 20_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	src := graph.SourceInLargestComponent(g, 1)
	ref := dijkstra.Distances(g, src)

	for _, policy := range []StealPolicy{PolicyWasp, PolicyRandom, PolicyTwoChoice} {
		t.Run(policy.String(), func(t *testing.T) {
			const p = 4
			tl := trace.NewCapped(p, 1<<12)
			m := metrics.NewSet(p)
			res := Run(g, src, Options{
				Workers: p, Delta: 8, Policy: policy,
				Trace: tl, Metrics: m, Timing: true,
			})
			if err := verify.Equal(res.Dist, ref); err != nil {
				t.Fatalf("observed solve wrong: %v", err)
			}
			if got := tl.CountKind(trace.Terminate); got != p {
				t.Fatalf("terminate events = %d, want %d", got, p)
			}
			checkTraceAccounts(t, tl, m, true)
			tot := m.Totals()
			if tot.Relaxations == 0 || tot.BucketAdvances == 0 {
				t.Fatalf("counters empty under policy %v: %+v", policy, tot)
			}
			var tiers int64
			for _, h := range tot.TierHits {
				tiers += h
			}
			if policy == PolicyWasp {
				if tiers != tot.StealHits {
					t.Fatalf("wasp policy: tier hits %v sum %d != steal hits %d",
						tot.TierHits, tiers, tot.StealHits)
				}
			} else if tiers != 0 {
				t.Fatalf("policy %v attributed steals to NUMA tiers: %v", policy, tot.TierHits)
			}
		})
	}
}

// TestObservedCancelMidSolve cancels traced solves from a sibling
// goroutine at staggered points, for every policy. The race detector
// checks the trace buffers against the cancellation path; the test
// body checks the partial-result contract survives observation.
func TestObservedCancelMidSolve(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	g, err := gen.Generate("kron", gen.Config{N: 30_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := graph.SourceInLargestComponent(g, 1)
	ref := dijkstra.Distances(g, src)

	const p = 4
	tl := trace.NewCapped(p, 1<<10)
	m := metrics.NewSet(p)
	s := NewSolver(g, Options{Workers: p, Delta: 4, Theta: 64, Trace: tl, Metrics: m})

	for _, policy := range []StealPolicy{PolicyWasp, PolicyRandom, PolicyTwoChoice} {
		// One solver per policy would defeat structure reuse; the policy
		// lives in the workers, so rebuild per policy instead.
		s = NewSolver(g, Options{
			Workers: p, Delta: 4, Theta: 64, Policy: policy, Trace: tl, Metrics: m,
		})
		for round := 0; round < 3; round++ {
			m.Reset()
			tl.Reset()
			tok := new(parallel.Token)
			s.Prepare(src)
			done := make(chan *Result, 1)
			go func() { done <- s.Launch(tok) }()
			// Cancel once the solve demonstrably started (round 0 cancels
			// immediately — the pre-start race is part of the matrix).
			for i := 0; i < round; i++ {
				for s.Progress() < int64(1000*(1<<round)) {
					time.Sleep(50 * time.Microsecond)
					if s.Progress() >= int64(len(ref)) {
						break
					}
				}
			}
			tok.Cancel()
			res := <-done
			for v, d := range res.Dist {
				if d < ref[v] {
					t.Fatalf("policy %v round %d: partial dist[%d]=%d below true %d",
						policy, round, v, d, ref[v])
				}
			}
			if tl.CountKind(trace.Terminate) > p {
				t.Fatalf("more terminates than workers: %d", tl.CountKind(trace.Terminate))
			}
			checkTraceAccounts(t, tl, m, res.Complete)
		}
	}
}

// checkTraceAccounts checks that a finished solve's trace accounts for
// every advance and steal its counters saw: nothing dropped, each
// worker's folded advances (the sum of B) equal to its BucketAdvances,
// the steal-hit events' chunks equal to StealHits, and — on a complete
// solve — each worker's last event its Terminate, so no advance was
// left pending.
func checkTraceAccounts(t *testing.T, tl *trace.Log, m *metrics.Set, complete bool) {
	t.Helper()
	if d := tl.Dropped(); d != 0 {
		t.Fatalf("trace dropped %d events", d)
	}
	p := len(m.Workers)
	advances := make([]int64, p)
	last := make([]trace.Kind, p)
	seen := make([]bool, p)
	var hits int64
	for _, e := range tl.Merged() {
		switch e.Kind {
		case trace.BucketAdvance:
			advances[e.Worker] += int64(e.B)
		case trace.StealHit:
			hits += int64(e.B)
		}
		last[e.Worker], seen[e.Worker] = e.Kind, true
	}
	for w := range m.Workers {
		if want := m.Workers[w].BucketAdvances; advances[w] != want {
			t.Fatalf("worker %d: advance events stand for %d advances, counters say %d",
				w, advances[w], want)
		}
		if complete && (!seen[w] || last[w] != trace.Terminate) {
			t.Fatalf("worker %d: last event %v (seen %v), want terminate", w, last[w], seen[w])
		}
	}
	if tot := m.Totals(); hits != tot.StealHits {
		t.Fatalf("steal-hit events carry %d chunks, counters say %d", hits, tot.StealHits)
	}
}

// TestObservedCheckpointConcurrent pairs the two racy-by-design
// features: a live trace plus a checkpointer spinning snapshots while
// the traced solve runs. The distance copies must stay valid upper
// bounds and the trace must stay single-writer clean (race detector).
func TestObservedCheckpointConcurrent(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	g, err := gen.Generate("road-usa", gen.Config{N: 100_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	src := graph.Vertex(0)
	ref := dijkstra.Distances(g, src)

	const p = 4
	tl := trace.NewCapped(p, 1<<12)
	m := metrics.NewSet(p)
	s := NewSolver(g, Options{Workers: p, Delta: 8, Trace: tl, Metrics: m, Timing: true})
	s.Prepare(src)
	done := make(chan *Result, 1)
	go func() { done <- s.Launch(nil) }()

	var snap Snapshot
	snaps := 0
	for {
		snap = s.Checkpoint(snap.Dist)
		snaps++
		for v, d := range snap.Dist {
			if d < ref[v] {
				t.Fatalf("snapshot %d: dist[%d]=%d below true %d", snaps, v, d, ref[v])
			}
		}
		select {
		case res := <-done:
			if err := verify.Equal(res.Dist, ref); err != nil {
				t.Fatalf("checkpointed+traced solve wrong: %v", err)
			}
			if got := tl.CountKind(trace.Terminate); got != p {
				t.Fatalf("terminate events = %d, want %d", got, p)
			}
			t.Logf("captured %d snapshots, retained %d events (%d dropped)",
				snaps, tl.Len(), tl.Dropped())
			return
		default:
		}
	}
}

// TestObservedMergeStableAcrossCalls: merging the same real-run log
// twice yields byte-identical streams — the deterministic tie-break is
// not an artifact of crafted inputs.
func TestObservedMergeStableAcrossCalls(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	g, _ := gen.Generate("kron", gen.Config{N: 8000, Seed: 13})
	src := graph.SourceInLargestComponent(g, 1)
	tl := trace.New(4)
	Run(g, src, Options{Workers: 4, Delta: 4, Trace: tl})

	a, b := tl.Merged(), tl.Merged()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("merge lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("merge differs at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestHotPathZeroAllocsWithoutObserver drives the worker loop directly
// — no goroutine spawn, no Result wrapper — and proves a solve with
// tracing disabled allocates nothing once the chunk pools are warm.
// This is the allocation budget the nil-check instrumentation design
// promises; an interface-valued observer hook would fail it.
func TestHotPathZeroAllocsWithoutObserver(t *testing.T) {
	g, err := gen.Generate("kron", gen.Config{N: 4000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	src := graph.SourceInLargestComponent(g, 1)
	s := NewSolver(g, Options{Workers: 1, Delta: 8})
	// Warm up: first solve grows the chunk pool to steady state.
	s.Prepare(src)
	s.ws[0].run()

	allocs := testing.AllocsPerRun(3, func() {
		s.Prepare(src)
		s.ws[0].run()
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %.1f objects/solve with no observer, want 0", allocs)
	}
}

// TestHotPathZeroAllocsSteadyTrace: with a warm capped trace attached
// the loop still allocates nothing — rings recycle in place, so a
// traced production solve has the same allocation profile as an
// untraced one.
func TestHotPathZeroAllocsSteadyTrace(t *testing.T) {
	g, err := gen.Generate("kron", gen.Config{N: 4000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	src := graph.SourceInLargestComponent(g, 1)
	tl := trace.NewCapped(1, 256) // small cap: the ring wraps, still no allocs
	m := metrics.NewSet(1)
	s := NewSolver(g, Options{Workers: 1, Delta: 8, Trace: tl, Metrics: m})
	s.Prepare(src)
	s.ws[0].run()

	allocs := testing.AllocsPerRun(3, func() {
		tl.Reset()
		s.Prepare(src)
		s.ws[0].run()
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %.1f objects/solve with warm trace, want 0", allocs)
	}
}

// BenchmarkTraceOverhead measures a full solve with the trace disabled
// (the nil-check branch only), enabled, and enabled with timing — the
// numbers quoted in DESIGN.md §9. Two regimes: kron 2^15 at Δ=8, where
// a worker rarely advances a bucket, and road-usa 2^16 at Δ=1 on two
// workers with ssspd's default 4096-event cap, where it advances every
// few dozen relaxations and the per-advance cost of tracing shows.
// CI runs it with -benchmem as an allocation smoke test: the
// steady-state solver reuses everything, so per-solve allocations must
// stay flat across the cases of a graph (the strict 0 allocs/op claim
// is pinned by the TestHotPathZeroAllocs* tests above, which bypass
// the goroutine spawn and Result wrapper).
func BenchmarkTraceOverhead(b *testing.B) {
	kron, err := gen.Generate("kron", gen.Config{N: 1 << 15, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	road, err := gen.Generate("road-usa", gen.Config{N: 1 << 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range []struct {
		name   string
		g      *graph.Graph
		delta  uint32
		p      int
		tl     *trace.Log
		timing bool
	}{
		{"disabled", kron, 8, 4, nil, false},
		{"enabled", kron, 8, 4, trace.NewCapped(4, 1<<14), false},
		{"enabled-timing", kron, 8, 4, trace.NewCapped(4, 1<<14), true},
		{"road-d1/disabled", road, 1, 2, nil, false},
		{"road-d1/enabled", road, 1, 2, trace.NewCapped(2, 4096), false},
	} {
		b.Run(fmt.Sprintf("%s/p%d", bench.name, bench.p), func(b *testing.B) {
			src := graph.SourceInLargestComponent(bench.g, 1)
			m := metrics.NewSet(bench.p)
			s := NewSolver(bench.g, Options{
				Workers: bench.p, Delta: bench.delta, Trace: bench.tl, Metrics: m, Timing: bench.timing,
			})
			// Warm the pools before timing. One solve is not enough on a
			// loaded host: a worker the OS leaves unscheduled makes its
			// chunks in whichever later solve it first runs.
			for i := 0; i < 8; i++ {
				s.Solve(src, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bench.tl != nil {
					bench.tl.Reset()
				}
				s.Solve(src, nil)
			}
		})
	}
}
