package wasp

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"wasp/internal/fault"
)

// correctChainDist is the exact solution for chain(n, w) from source 0.
func correctChainDist(n int, w Weight) []uint32 {
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = uint32(i) * w
	}
	return dist
}

// TestAuditorSync: synchronous audits certify inline — a correct result
// passes, a corrupted one fails and fires the hook with the scope and
// source that served it.
func TestAuditorSync(t *testing.T) {
	g := chain(16, 3)
	var fail atomic.Pointer[AuditFailure]
	a := NewAuditor(AuditorOptions{
		SampleRate: 1,
		OnFailure:  func(f AuditFailure) { fail.Store(&f) },
	})
	defer a.Close()

	good := correctChainDist(16, 3)
	a.maybeAudit(g, "line@1", 0, good, true)
	if st := a.Stats(); st.Sampled != 1 || st.Passed != 1 || st.Failed != 0 {
		t.Fatalf("stats after correct result = %+v", st)
	}

	bad := correctChainDist(16, 3)
	bad[7] ^= 1 << 6 // the DistFlip fault's bit
	a.maybeAudit(g, "line@1", 0, bad, true)
	st := a.Stats()
	if st.Sampled != 2 || st.Passed != 1 || st.Failed != 1 {
		t.Fatalf("stats after corrupt result = %+v", st)
	}
	if st.LastError == "" {
		t.Fatal("LastError empty after a failed audit")
	}
	f := fail.Load()
	if f == nil || f.Scope != "line@1" || f.Source != 0 || !f.Complete || f.Err == nil {
		t.Fatalf("failure hook got %+v", f)
	}

	// A degraded result is held to the upper-bound certificate only:
	// unreached vertices at Infinity pass, a finite label on an
	// unreachable vertex cannot exist on a chain, so corrupt the source.
	partial := correctChainDist(16, 3)
	for i := 8; i < 16; i++ {
		partial[i] = Infinity
	}
	a.maybeAudit(g, "line@1", 0, partial, false)
	if st := a.Stats(); st.Passed != 2 {
		t.Fatalf("degraded result failed its upper-bound audit: %+v", st)
	}
	partial[0] = 9
	a.maybeAudit(g, "line@1", 0, partial, false)
	if st := a.Stats(); st.Failed != 2 {
		t.Fatalf("corrupt degraded result passed: %+v", st)
	}
}

// TestAuditorStride: SampleRate 0.25 elects exactly every 4th result.
func TestAuditorStride(t *testing.T) {
	g := chain(4, 1)
	a := NewAuditor(AuditorOptions{SampleRate: 0.25})
	defer a.Close()
	dist := correctChainDist(4, 1)
	for i := 0; i < 40; i++ {
		a.maybeAudit(g, "s", 0, dist, true)
	}
	if st := a.Stats(); st.Sampled != 10 || st.Passed != 10 {
		t.Fatalf("stats = %+v, want 10 sampled of 40 at rate 0.25", st)
	}
}

// TestAuditorAsync: async audits detach a copy of the distances, drain
// in the background, and Close flushes the queue before returning.
func TestAuditorAsync(t *testing.T) {
	g := chain(16, 3)
	a := NewAuditor(AuditorOptions{SampleRate: 1, Async: true})

	bad := correctChainDist(16, 3)
	bad[3]++
	a.maybeAudit(g, "line@1", 0, bad, true)
	bad[3]-- // caller mutates its result after submission; the audit copy is unaffected
	good := correctChainDist(16, 3)
	a.maybeAudit(g, "line@1", 0, good, true)

	a.Close() // drains the queue
	st := a.Stats()
	if st.Sampled != 2 || st.Passed != 1 || st.Failed != 1 || st.Dropped != 0 {
		t.Fatalf("stats after drain = %+v", st)
	}

	// Submissions after Close are dropped, never deadlocked.
	a.maybeAudit(g, "line@1", 0, good, true)
	if st := a.Stats(); st.Dropped != 1 {
		t.Fatalf("stats after post-close submission = %+v", st)
	}
}

// TestAuditorNilSafe: every method on a nil auditor is a no-op, so the
// pool's submission call sites need no guards.
func TestAuditorNilSafe(t *testing.T) {
	var a *Auditor
	a.maybeAudit(chain(2, 1), "s", 0, []uint32{0, 1}, true)
	if st := a.Stats(); st != (AuditorStats{}) {
		t.Fatalf("nil Stats() = %+v", st)
	}
	a.Close()
}

// TestPoolAuditsServedResults: a pool wired with an auditor submits the
// results it serves, and an injected distance flip is caught by the
// certificate even though the solver itself ran correctly.
func TestPoolAuditsServedResults(t *testing.T) {
	g := chain(64, 2)
	var failures atomic.Int64
	aud := NewAuditor(AuditorOptions{
		SampleRate: 1,
		OnFailure:  func(AuditFailure) { failures.Add(1) },
	})
	defer aud.Close()
	p, err := NewPool(g, Options{Workers: 1}, PoolOptions{
		Sessions: 1, Auditor: aud, CacheScope: "line@7",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close(context.Background())

	if _, err := p.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if st := aud.Stats(); st.Sampled != 1 || st.Passed != 1 {
		t.Fatalf("clean solve: stats = %+v", st)
	}

	fault.Activate(fault.NewPlan(fault.Config{Seed: 3, DistFlip: 1000}))
	defer fault.Deactivate()
	if _, err := p.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if st := aud.Stats(); st.Failed != 1 {
		t.Fatalf("flipped solve: stats = %+v, want Failed 1", st)
	}
	if failures.Load() != 1 {
		t.Fatalf("failure hook fired %d times, want 1", failures.Load())
	}
}

// TestRegistryAuditQuarantine is the end-to-end detection path: an
// injected distance flip on a served result fails its sampled audit,
// the registry quarantines the active version — queries return
// ErrQuarantined, the cache scope is invalidated, the version is kept
// out of rollback history — a heal whose candidate fails to build
// leaves it quarantined, and reloading the graph heals it.
func TestRegistryAuditQuarantine(t *testing.T) {
	cache := NewCache(CacheOptions{MaxBytes: 1 << 20})
	events := make(chan RegistryEvent, 16)
	r := NewRegistry(RegistryOptions{
		Pool:         PoolOptions{Sessions: 1, QueueDepth: 16, QueueWait: 5 * time.Second},
		Cache:        cache,
		Audit:        &AuditorOptions{SampleRate: 1}, // sync: deterministic for the test
		DrainTimeout: 10 * time.Second,
		ConfigureOptions: func(_ string, version uint64, opt Options) Options {
			if version == 2 {
				opt.Algorithm = Algorithm(-1) // v2's pool cannot be built
			}
			return opt
		},
		OnEvent: func(ev RegistryEvent) {
			select {
			case events <- ev:
			default:
			}
		},
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	}()
	ctx := context.Background()
	if err := r.Load(ctx, chainBundle("line", 1, 16, 3)); err != nil {
		t.Fatalf("Load: %v", err)
	}

	// Corrupt every served result from here on.
	fault.Activate(fault.NewPlan(fault.Config{Seed: 9, DistFlip: 1000}))
	res, err := r.Run(ctx, "line", 0)
	fault.Deactivate()
	if err != nil {
		t.Fatalf("Run: %v", err) // the flipped result is still served; the audit runs after
	}
	if res.Dist[1] == 3 {
		t.Fatal("fault injection did not corrupt the served result")
	}

	// The sync audit already failed and quarantined the version.
	st, ok := r.Status("line")
	if !ok || st.State != GraphQuarantined {
		t.Fatalf("Status = %+v, want state %q", st, GraphQuarantined)
	}
	if r.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want 1", r.Quarantined())
	}
	if as := r.Auditor().Stats(); as.Failed != 1 {
		t.Fatalf("auditor stats = %+v, want Failed 1", as)
	}
	if _, err := r.Run(ctx, "line", 0); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Run on quarantined graph: %v, want ErrQuarantined", err)
	}
	waitEvent := func(kind RegistryEventKind) RegistryEvent {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			select {
			case ev := <-events:
				if ev.Kind == kind {
					return ev
				}
			case <-deadline:
				t.Fatalf("no %s event", kind)
			}
		}
	}
	waitEvent(EventQuarantined)

	// A heal whose candidate fails to build must not disguise the
	// outage: the graph stays quarantined, nothing is servable, and
	// queries keep getting ErrQuarantined, not a closed pool.
	if err := r.Load(ctx, chainBundle("line", 2, 16, 3)); err == nil {
		t.Fatal("Load of an unbuildable candidate succeeded")
	}
	if st, _ := r.Status("line"); st.State != GraphQuarantined {
		t.Fatalf("state after failed heal = %q, want %q", st.State, GraphQuarantined)
	}
	if r.Servable() {
		t.Fatal("Servable() after a failed heal, with nothing serving")
	}
	if _, err := r.Run(ctx, "line", 0); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Run after failed heal: %v, want ErrQuarantined", err)
	}

	// Reloading the same version is a heal, not a no-op: faults are off,
	// so the graph serves again and the (invalidated) cache cannot
	// replay the corrupt result.
	if err := r.Load(ctx, chainBundle("line", 1, 16, 3)); err != nil {
		t.Fatalf("healing Load: %v", err)
	}
	st, _ = r.Status("line")
	if st.State != GraphServing {
		t.Fatalf("state after heal = %q, want %q", st.State, GraphServing)
	}
	res, err = r.Run(ctx, "line", 0)
	if err != nil {
		t.Fatalf("Run after heal: %v", err)
	}
	if res.Dist[1] != 3 || res.Dist[15] != 45 {
		t.Fatalf("healed result dist[1]=%d dist[15]=%d, want 3 and 45 (corrupt cache entry replayed?)",
			res.Dist[1], res.Dist[15])
	}

	// The quarantined version must not be in rollback history.
	if v, err := r.Rollback(ctx, "line"); err == nil {
		t.Fatalf("Rollback succeeded onto v%d; the quarantined version must not enter history", v)
	}
}

// TestRegistryQuarantineKeepsCounters: a graph's pool counters are
// kept per graph name, so they keep counting while its active version
// is quarantined — Stats reports them with the gauges at zero — and
// never drop across the quarantine and the heal that ends it.
func TestRegistryQuarantineKeepsCounters(t *testing.T) {
	r := NewRegistry(RegistryOptions{
		Pool:         PoolOptions{Sessions: 1, QueueDepth: 16, QueueWait: 5 * time.Second},
		Audit:        &AuditorOptions{SampleRate: 1}, // sync: the flip quarantines before Run returns
		DrainTimeout: 10 * time.Second,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	}()
	ctx := context.Background()
	var last int64
	check := func(step string, completed int64, sessions int) {
		t.Helper()
		st, ok := r.Stats("line")
		if st.Completed < last {
			t.Fatalf("%s: Completed dropped %d -> %d", step, last, st.Completed)
		}
		if !ok {
			t.Fatalf("%s: Stats not ok for a registered graph", step)
		}
		last = st.Completed
		if st.Completed != completed || st.Sessions != sessions {
			t.Fatalf("%s: Completed %d, Sessions %d; want %d, %d", step, st.Completed, st.Sessions, completed, sessions)
		}
	}
	if err := r.Load(ctx, chainBundle("line", 1, 16, 3)); err != nil {
		t.Fatal(err)
	}
	for src := Vertex(0); src < 2; src++ {
		if _, err := r.Run(ctx, "line", src); err != nil {
			t.Fatal(err)
		}
	}
	check("two solves", 2, 1)

	fault.Activate(fault.NewPlan(fault.Config{Seed: 9, DistFlip: 1000}))
	_, err := r.Run(ctx, "line", 2)
	fault.Deactivate()
	if err != nil {
		t.Fatalf("flipped Run: %v", err)
	}
	if st, _ := r.Status("line"); st.State != GraphQuarantined {
		t.Fatalf("state %q after a failed audit, want %q", st.State, GraphQuarantined)
	}
	check("quarantined", 3, 0)
	if _, err := r.Run(ctx, "line", 0); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Run on quarantined graph: %v, want ErrQuarantined", err)
	}
	check("refused while quarantined", 3, 0)

	if err := r.Load(ctx, chainBundle("line", 1, 16, 3)); err != nil {
		t.Fatalf("healing Load: %v", err)
	}
	check("healed", 3, 1)
	if _, err := r.Run(ctx, "line", 3); err != nil {
		t.Fatal(err)
	}
	check("solve after heal", 4, 1)
	if _, ok := r.Stats("absent"); ok {
		t.Fatal("Stats ok for an unregistered graph")
	}
}

// TestRegistryAuditCleanRunNoFailures: with no faults injected, a fully
// sampled workload produces zero audit failures — the certificate
// never cries wolf on honest results, including degraded ones.
func TestRegistryAuditCleanRunNoFailures(t *testing.T) {
	r := NewRegistry(RegistryOptions{
		Pool:         PoolOptions{Sessions: 2, QueueDepth: 16, QueueWait: 5 * time.Second},
		Audit:        &AuditorOptions{SampleRate: 1},
		DrainTimeout: 10 * time.Second,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	}()
	ctx := context.Background()
	if err := r.Load(ctx, chainBundle("line", 1, 64, 2)); err != nil {
		t.Fatal(err)
	}
	for src := Vertex(0); src < 8; src++ {
		if _, err := r.Run(ctx, "line", src); err != nil {
			t.Fatalf("Run(%d): %v", src, err)
		}
	}
	st := r.Auditor().Stats()
	if st.Failed != 0 {
		t.Fatalf("clean workload produced audit failures: %+v (last: %s)", st, st.LastError)
	}
	if st.Passed == 0 {
		t.Fatalf("no audits ran: %+v", st)
	}
}

// BenchmarkAuditOverhead measures the serving-path cost of auditing at
// the daemon's default 1% sampling against the same pool with auditing
// off. The unsampled 99% pay one atomic increment.
func BenchmarkAuditOverhead(b *testing.B) {
	g, err := GenerateWorkload("kron", WorkloadConfig{N: 4000, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	src := SourceInLargestComponent(g, 1)
	for _, bc := range []struct {
		name string
		rate float64
	}{
		{"off", 0},
		{"sampled-1pct", 0.01},
	} {
		b.Run(bc.name, func(b *testing.B) {
			popt := PoolOptions{Sessions: 1}
			if bc.rate > 0 {
				aud := NewAuditor(AuditorOptions{SampleRate: bc.rate, Async: true})
				defer aud.Close()
				popt.Auditor = aud
			}
			p, err := NewPool(g, Options{}, popt)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close(context.Background())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(context.Background(), src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
