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
	"wasp/internal/fault"
	"wasp/internal/verify"
)

// TestPoolDeadlineDegrades is the acceptance check for graceful
// degradation: a solve that cannot finish inside the pool's Deadline
// budget comes back as a partial upper-bound snapshot with a nil
// error — Complete false, a positive settled fraction, and every
// finite distance no smaller than the true one.
func TestPoolDeadlineDegrades(t *testing.T) {
	g, err := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: 100000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	src := wasp.SourceInLargestComponent(g, 1)
	ref, err := wasp.Run(g, src, wasp.Options{Algorithm: wasp.AlgoDijkstra})
	if err != nil {
		t.Fatal(err)
	}

	p, err := wasp.NewPool(g, wasp.Options{Workers: 1}, wasp.PoolOptions{
		Sessions: 1, Deadline: 300 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close(context.Background())

	res, err := p.Run(context.Background(), src)
	if err != nil {
		t.Fatalf("degraded run returned error %v, want partial result", err)
	}
	if res == nil || res.Complete {
		t.Fatalf("res = %+v, want an incomplete partial snapshot", res)
	}
	if res.Progress.Settled <= 0 || res.Progress.Settled > 1 {
		t.Fatalf("Progress.Settled = %v, want in (0, 1]", res.Progress.Settled)
	}
	for v := range ref.Dist {
		if res.Dist[v] < ref.Dist[v] {
			t.Fatalf("partial d(%d) = %d below true distance %d", v, res.Dist[v], ref.Dist[v])
		}
	}
	// The degraded-result contract is exactly what the auditor's weak
	// certificate checks: every partial snapshot must satisfy it.
	if err := verify.UpperBound(g, src, res.Dist); err != nil {
		t.Fatalf("degraded result fails the upper-bound certificate: %v", err)
	}
	if s := p.Stats(); s.Degraded != 1 {
		t.Fatalf("stats = %+v, want Degraded 1", s)
	}
}

// TestPoolCallerDeadlineDegrades: a deadline the caller set behaves
// exactly like the pool's own budget — even one that already expired,
// which degrades to the zero-work snapshot (source settled, nothing
// else) instead of erroring.
func TestPoolCallerDeadlineDegrades(t *testing.T) {
	g := wasp.FromEdges(3, true, []wasp.Edge{
		{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 1},
	})
	p, err := wasp.NewPool(g, wasp.Options{}, wasp.PoolOptions{Sessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close(context.Background())

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := p.Run(ctx, 0)
	if err != nil {
		t.Fatalf("err = %v, want degraded result", err)
	}
	if res.Complete || res.Dist[0] != 0 || res.Dist[2] != wasp.Infinity {
		t.Fatalf("res = %+v, want the zero-work snapshot", res)
	}
	if want := 1.0 / 3.0; res.Progress.Settled != want {
		t.Fatalf("Progress.Settled = %v, want %v", res.Progress.Settled, want)
	}
	// Even the zero-work snapshot honors the upper-bound certificate.
	if err := verify.UpperBound(g, 0, res.Dist); err != nil {
		t.Fatalf("zero-work snapshot fails the upper-bound certificate: %v", err)
	}

	// Explicit cancellation is an abort, not a budget: it still errors.
	cancelled, stop := context.WithCancel(context.Background())
	stop()
	if _, err := p.Run(cancelled, 0); !errors.Is(err, wasp.ErrCancelled) {
		t.Fatalf("cancelled err = %v, want ErrCancelled", err)
	}
}

// TestPoolQuarantineRetry: a solve killed by an injected worker panic
// must not surface to the caller — the pool quarantines the poisoned
// session, rebuilds it, retries once, and the retry produces the
// complete, correct answer. On an observing pool the rebuilt session
// carries a fresh observer, and OnSolve sees it holding the retry's
// counters.
func TestPoolQuarantineRetry(t *testing.T) {
	g, err := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 2000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	src := wasp.SourceInLargestComponent(g, 1)
	ref, err := wasp.Run(g, src, wasp.Options{Algorithm: wasp.AlgoDijkstra})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		observe bool
	}{{"plain", false}, {"observed", true}} {
		observe := tc.observe
		t.Run(tc.name, func(t *testing.T) {
			var hooked []wasp.SolveObservation
			var hookRelax int64
			conf := wasp.PoolOptions{Sessions: 1}
			if observe {
				conf.Observe = &wasp.ObserverConfig{}
				conf.OnSolve = func(o wasp.SolveObservation) {
					hooked = append(hooked, o)
					if o.Observer != nil {
						hookRelax = o.Observer.Totals().Relaxations
					}
				}
			}

			// SolveStart is hit by every worker on every solve, so
			// PanicOnHit 1 deterministically kills the first solve after
			// activation.
			plan := fault.NewPlan(fault.Config{
				Seed: 7, PanicOnHit: 1, PanicPoint: fault.SolveStart,
			})
			fault.Activate(plan)
			defer fault.Deactivate()

			p, err := wasp.NewPool(g, wasp.Options{Workers: 2, Delta: 4}, conf)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close(context.Background())

			res, err := p.Run(context.Background(), src)
			if err != nil || res == nil || !res.Complete {
				t.Fatalf("run after injected panic: %v, %+v", err, res)
			}
			for v := range ref.Dist {
				if res.Dist[v] != ref.Dist[v] {
					t.Fatalf("retried solve wrong: d(%d) = %d, want %d", v, res.Dist[v], ref.Dist[v])
				}
			}
			if plan.Hits() < 1 {
				t.Fatal("injection hook never fired")
			}
			if s := p.Stats(); s.Quarantined != 1 || s.Completed != 1 {
				t.Fatalf("stats = %+v, want Quarantined 1, Completed 1", s)
			}
			if !observe {
				return
			}
			if len(hooked) != 1 || hooked[0].Observer == nil || hooked[0].Err != nil {
				t.Fatalf("OnSolve saw %+v, want one retried solve with an observer", hooked)
			}
			if hookRelax <= 0 {
				t.Fatalf("retried solve's observer holds %d relaxations, want > 0", hookRelax)
			}
		})
	}
}

// TestPoolShutdownUnderLoad is the graceful-drain acceptance check:
// Close under concurrent load stops admission, releases queued
// waiters, waits out the in-flight solves, and leaks no goroutines.
func TestPoolShutdownUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	g, err := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: 50000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	src := wasp.SourceInLargestComponent(g, 1)
	p, err := wasp.NewPool(g, wasp.Options{Workers: 2}, wasp.PoolOptions{
		Sessions: 2, QueueDepth: 4, QueueWait: time.Second,
		Deadline: 2 * time.Millisecond, // bounds the drain
	})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := p.Run(context.Background(), src)
			errs <- err
		}()
	}
	time.Sleep(time.Millisecond) // let some clients reach the pool

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatalf("drain did not finish: %v", err)
	}
	if _, err := p.Run(context.Background(), src); !errors.Is(err, wasp.ErrPoolClosed) {
		t.Fatalf("post-close Run: %v, want ErrPoolClosed", err)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil && !errors.Is(err, wasp.ErrOverloaded) && !errors.Is(err, wasp.ErrPoolClosed) {
			t.Fatalf("client saw unexpected error under drain: %v", err)
		}
	}

	// Leak check, in the style of the parallel package's tests: give
	// solver workers and watchers a moment to unwind.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after drain", before, g)
	}
}

// TestPoolConcurrentHammer drives many clients through a small pool
// and checks the books balance: every call either completed, degraded
// or shed, and the stats counters account for all of them. Run under
// -race this doubles as the pool's state-corruption check.
func TestPoolConcurrentHammer(t *testing.T) {
	g, err := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 2000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	src := wasp.SourceInLargestComponent(g, 1)
	p, err := wasp.NewPool(g, wasp.Options{Workers: 2, Delta: 4}, wasp.PoolOptions{
		Sessions: 2, QueueDepth: 2, QueueWait: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const clients, rounds = 8, 5
	var completed, shed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := p.Run(context.Background(), src)
				switch {
				case err == nil && res.Complete:
					completed.Add(1)
					if res.Dist[src] != 0 {
						t.Errorf("d(source) = %d", res.Dist[src])
						return
					}
				case errors.Is(err, wasp.ErrOverloaded):
					shed.Add(1)
				default:
					t.Errorf("unexpected outcome: %v, %+v", err, res)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := p.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	s := p.Stats()
	if s.Completed != completed.Load() || s.Shed != shed.Load() {
		t.Fatalf("stats %+v disagree with observed completed=%d shed=%d",
			s, completed.Load(), shed.Load())
	}
	if completed.Load() == 0 {
		t.Fatal("no client ever completed")
	}
	if s.Completed+s.Shed != clients*rounds {
		t.Fatalf("outcomes do not sum: %d + %d != %d", s.Completed, s.Shed, clients*rounds)
	}
}

// TestPoolRunCloseRace is the regression test for the Run/Close
// contract the registry's hot-swap path relies on: once Close begins,
// every Run that has not started solving deterministically returns
// ErrPoolClosed — never a hang, never a panic, never a fresh solve
// racing the drain. Many client goroutines hammer Run (some with
// queue waits, some pre-cancelled) while Close fires concurrently,
// repeated across fresh pools to vary the interleaving.
func TestPoolRunCloseRace(t *testing.T) {
	g := wasp.FromEdges(6, true, []wasp.Edge{
		{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 1},
		{From: 2, To: 3, W: 1}, {From: 3, To: 4, W: 1},
		{From: 4, To: 5, W: 1},
	})
	const (
		pools   = 20
		clients = 8
	)
	for round := 0; round < pools; round++ {
		p, err := wasp.NewPool(g, wasp.Options{Workers: 2}, wasp.PoolOptions{
			Sessions:   2,
			QueueDepth: 4,
			QueueWait:  50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}

		var closed atomic.Bool
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				for i := 0; ; i++ {
					res, err := p.Run(context.Background(), 0)
					switch {
					case err == nil:
						if !res.Complete || res.Dist[0] != 0 {
							t.Errorf("round %d client %d: bad result %+v", round, c, res)
							return
						}
					case errors.Is(err, wasp.ErrOverloaded):
						// Admission shed; keep hammering.
					case errors.Is(err, wasp.ErrPoolClosed):
						if i == 0 && !closed.Load() {
							// Cheap sanity only: closed is set before
							// Close is invoked, so ErrPoolClosed can
							// never precede it.
							t.Errorf("round %d client %d: ErrPoolClosed before Close began", round, c)
						}
						return
					default:
						t.Errorf("round %d client %d: unexpected error %v", round, c, err)
						return
					}
				}
			}(c)
		}

		close(start)
		// Let the clients establish in-flight and queued load, then
		// close mid-hammer.
		time.Sleep(time.Duration(round%4) * 100 * time.Microsecond)
		closed.Store(true)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := p.Close(ctx); err != nil {
			t.Fatalf("round %d: Close did not drain: %v", round, err)
		}
		cancel()

		// Every client must observe ErrPoolClosed and exit promptly —
		// a hang here is exactly the bug this test pins.
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: clients still blocked in Run after Close", round)
		}
	}
}
