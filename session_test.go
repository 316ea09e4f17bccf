package wasp_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wasp"
)

// TestSessionReuseMatchesDijkstra: one session solving many sources
// must produce, per source, exactly the distances of the sequential
// oracle — the reused deques, pools, buckets and distance array leak
// nothing between solves.
func TestSessionReuseMatchesDijkstra(t *testing.T) {
	g, err := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 2000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := wasp.NewSession(g, wasp.Options{
		Algorithm: wasp.AlgoWasp, Workers: 3, Delta: 4, Theta: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	for _, src := range []wasp.Vertex{0, 7, wasp.Vertex(n / 3), wasp.Vertex(n - 1)} {
		res, err := sess.Run(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			t.Fatalf("source %d: session run not complete", src)
		}
		want, err := wasp.Run(g, src, wasp.Options{Algorithm: wasp.AlgoDijkstra})
		if err != nil {
			t.Fatal(err)
		}
		for v := range want.Dist {
			if res.Dist[v] != want.Dist[v] {
				t.Fatalf("source %d: d(%d) = %d, want %d", src, v, res.Dist[v], want.Dist[v])
			}
		}
	}
}

// TestSessionReuseAfterCancel: a cancelled solve must not poison the
// session — the next Run drains the interrupted state and solves
// exactly.
func TestSessionReuseAfterCancel(t *testing.T) {
	g, err := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: 20000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	src := wasp.SourceInLargestComponent(g, 1)
	sess, err := wasp.NewSession(g, wasp.Options{
		Algorithm: wasp.AlgoWasp, Workers: 4, Delta: 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sess.Run(cancelled, src)
	if !errors.Is(err, wasp.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if res == nil || res.Complete {
		t.Fatalf("cancelled session run returned %+v", res)
	}

	res, err = sess.Run(context.Background(), src)
	if err != nil || !res.Complete {
		t.Fatalf("post-cancel run: %v, %+v", err, res)
	}
	want, err := wasp.Run(g, src, wasp.Options{Algorithm: wasp.AlgoDijkstra})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Dist {
		if res.Dist[v] != want.Dist[v] {
			t.Fatalf("session poisoned by cancel: d(%d) = %d, want %d", v, res.Dist[v], want.Dist[v])
		}
	}
}

// TestSessionFallback: algorithms outside the preallocated Wasp path
// still run through a session with identical results.
func TestSessionFallback(t *testing.T) {
	g, err := wasp.GenerateWorkload("urand", wasp.WorkloadConfig{N: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []wasp.Options{
		{Algorithm: wasp.AlgoGAP, Workers: 2, Delta: 16},
		{Algorithm: wasp.AlgoDijkstra},
	} {
		sess, err := wasp.NewSession(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(context.Background(), 1)
		if err != nil || !res.Complete {
			t.Fatalf("%v: %v, %+v", opt.Algorithm, err, res)
		}
		want, err := wasp.Run(g, 1, wasp.Options{Algorithm: wasp.AlgoDijkstra})
		if err != nil {
			t.Fatal(err)
		}
		for v := range want.Dist {
			if res.Dist[v] != want.Dist[v] {
				t.Fatalf("%v: d(%d) mismatch", opt.Algorithm, v)
			}
		}
	}
}

// TestSessionArgumentErrors: invalid constructions and sources fail
// fast, without touching solver state.
func TestSessionArgumentErrors(t *testing.T) {
	if _, err := wasp.NewSession(nil, wasp.Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := wasp.FromEdges(2, true, []wasp.Edge{{From: 0, To: 1, W: 1}})
	if _, err := wasp.NewSession(g, wasp.Options{Algorithm: wasp.Algorithm(99)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	sess, err := wasp.NewSession(g, wasp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), 5); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

// TestSessionMetricsPerRun: the session-owned metrics set is reset per
// run, not accumulated — with one worker the counters are deterministic
// and must match across repeated solves of the same source.
func TestSessionMetricsPerRun(t *testing.T) {
	g, err := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 1500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := wasp.NewSession(g, wasp.Options{Algorithm: wasp.AlgoWasp, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Run(context.Background(), 3)
	if err != nil || first.Metrics == nil || first.Metrics.Relaxations == 0 {
		t.Fatalf("first run: %v, %+v", err, first.Metrics)
	}
	firstRelax := first.Metrics.Relaxations
	second, err := sess.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if second.Metrics.Relaxations != firstRelax {
		t.Fatalf("metrics accumulate across runs: %d then %d",
			firstRelax, second.Metrics.Relaxations)
	}
}

// TestSessionSteadyStateAllocs is the allocation-regression guard for
// the tentpole claim: after warmup, a session solve performs only a
// small constant number of allocations (result struct, worker
// goroutines, context watcher) — independent of graph size. A fresh
// per-call Run allocates the distance array, every worker, deque,
// bucket vector, chunk pool and the leaf bitmap each time.
func TestSessionSteadyStateAllocs(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	g, err := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 4000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	src := wasp.SourceInLargestComponent(g, 1)
	sess, err := wasp.NewSession(g, wasp.Options{
		Algorithm: wasp.AlgoWasp, Workers: 2, Delta: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ { // warm the chunk pools and bucket vectors
		if _, err := sess.Run(ctx, src); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sess.Run(ctx, src); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 64
	if allocs > maxAllocs {
		t.Fatalf("steady-state Session.Run allocates %.0f objects/run, want <= %d", allocs, maxAllocs)
	}
	t.Logf("steady-state allocs/run: %.1f", allocs)
}

// TestSessionPreCancelledShortCircuit: a context that is already done
// at Run entry must come back with the standard partial-result
// contract — initialized snapshot, Complete false, both sentinel
// errors — on the preallocated path and the fallback path alike, and
// promptly (the short-circuit never launches workers, so even a huge
// worker count costs nothing). An observed session solves once first:
// the short-circuit must clear that solve's trace, not leave it behind
// for a reader of the zero-work run.
func TestSessionPreCancelledShortCircuit(t *testing.T) {
	g := wasp.FromEdges(4, true, []wasp.Edge{
		{From: 1, To: 2, W: 1}, {From: 2, To: 3, W: 1},
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opt := range []wasp.Options{
		{Algorithm: wasp.AlgoWasp, Workers: 64}, // preallocated path
		{Algorithm: wasp.AlgoGAP, Workers: 64},  // fallback path
		// Observed; a one-event cap makes the warm-up solve drop events.
		{Algorithm: wasp.AlgoWasp, Workers: 2,
			Observer: wasp.NewObserver(wasp.ObserverConfig{TraceCapacity: 1})},
	} {
		sess, err := wasp.NewSession(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		obs := opt.Observer
		if obs != nil {
			if _, err := sess.Run(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
			if len(obs.Events()) == 0 || obs.DroppedEvents() == 0 {
				t.Fatalf("warm-up solve traced %d events, dropped %d; want both > 0",
					len(obs.Events()), obs.DroppedEvents())
			}
		}
		start := time.Now()
		res, err := sess.Run(ctx, 1)
		elapsed := time.Since(start)
		if !errors.Is(err, wasp.ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want ErrCancelled wrapping context.Canceled", opt.Algorithm, err)
		}
		if res == nil || res.Complete {
			t.Fatalf("%v: res = %+v, want incomplete partial", opt.Algorithm, res)
		}
		if res.Dist[1] != 0 || res.Dist[3] != wasp.Infinity {
			t.Fatalf("%v: snapshot = %v, want initialized distances", opt.Algorithm, res.Dist)
		}
		if want := 0.25; res.Progress.Settled != want {
			t.Fatalf("%v: Settled = %v, want %v", opt.Algorithm, res.Progress.Settled, want)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("%v: short-circuit took %v", opt.Algorithm, elapsed)
		}
		if obs != nil && (len(obs.Events()) != 0 || obs.DroppedEvents() != 0) {
			t.Fatalf("observer kept the previous solve's trace: %d events, %d dropped",
				len(obs.Events()), obs.DroppedEvents())
		}
		// The session is untouched: the next run solves exactly.
		res, err = sess.Run(context.Background(), 1)
		if err != nil || !res.Complete || res.Dist[3] != 2 {
			t.Fatalf("%v: post-short-circuit run: %v, %+v", opt.Algorithm, err, res)
		}
	}
}

// TestSessionConcurrentHammer: the satellite race check. N goroutines
// released simultaneously against one session must observe exactly one
// winner and clean ErrSessionBusy losers — no third outcome, no
// partial-state corruption (this test is in the -race CI job). Session
// storage is only inspected after all contenders returned, per the
// aliasing contract.
func TestSessionConcurrentHammer(t *testing.T) {
	g, err := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: 100000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	src := wasp.SourceInLargestComponent(g, 1)
	sess, err := wasp.NewSession(g, wasp.Options{
		Algorithm: wasp.AlgoWasp, Workers: 2, Delta: 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	const contenders = 8
	sawExactlyOne := false
	for round := 0; round < 20 && !sawExactlyOne; round++ {
		start := make(chan struct{})
		var wins, busy atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < contenders; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, err := sess.Run(context.Background(), src)
				switch {
				case err == nil:
					wins.Add(1)
				case errors.Is(err, wasp.ErrSessionBusy):
					busy.Add(1)
				default:
					t.Errorf("round %d: unexpected error %v", round, err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if wins.Load()+busy.Load() != contenders {
			t.Fatalf("round %d: %d wins + %d busy != %d contenders",
				round, wins.Load(), busy.Load(), contenders)
		}
		if wins.Load() == 0 {
			t.Fatalf("round %d: no winner", round)
		}
		// A loser that retries after the winner finished is legal; the
		// canonical interleaving — all contenders overlapping one
		// in-flight solve — must show up within a few rounds.
		sawExactlyOne = wins.Load() == 1 && busy.Load() == contenders-1
	}
	if !sawExactlyOne {
		t.Fatal("never observed the one-winner/N-1-busy interleaving")
	}

	// No contender corrupted the single-owner state: a quiet solve
	// still matches the oracle.
	res, err := sess.Run(context.Background(), src)
	if err != nil || !res.Complete {
		t.Fatalf("post-hammer run: %v, %+v", err, res)
	}
	ref, err := wasp.Run(g, src, wasp.Options{Algorithm: wasp.AlgoDijkstra})
	if err != nil {
		t.Fatal(err)
	}
	for v := range ref.Dist {
		if res.Dist[v] != ref.Dist[v] {
			t.Fatalf("post-hammer d(%d) = %d, want %d", v, res.Dist[v], ref.Dist[v])
		}
	}
}

// TestSessionProgress: a complete solve on the preallocated path
// reports the reachable fraction and a positive relaxation count.
func TestSessionProgress(t *testing.T) {
	g := wasp.FromEdges(4, true, []wasp.Edge{
		{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 1},
	})
	sess, err := wasp.NewSession(g, wasp.Options{Algorithm: wasp.AlgoWasp})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.75; res.Progress.Settled != want { // vertex 3 unreachable
		t.Fatalf("Settled = %v, want %v", res.Progress.Settled, want)
	}
	if res.Progress.Relaxations == 0 {
		t.Fatal("no relaxations reported on the preallocated path")
	}
}

// TestSessionCancelDeadline: the deadline form of cancellation carries
// both sentinel errors, as with RunContext.
func TestSessionCancelDeadline(t *testing.T) {
	g := wasp.FromEdges(2, true, []wasp.Edge{{From: 0, To: 1, W: 1}})
	sess, err := wasp.NewSession(g, wasp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := sess.Run(ctx, 0)
	if !errors.Is(err, wasp.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if res == nil || res.Complete {
		t.Fatalf("res = %+v", res)
	}
}
