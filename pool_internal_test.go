package wasp

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestPoolAdmissionDeterministic pins the acceptance bound exactly:
// with K sessions all busy and Q queries queued, the K+Q+1-th
// concurrent Run returns ErrOverloaded immediately — no ticket, no
// session, no solver workers. The test occupies the pool by hand
// (draining sessions and tickets the way K in-flight Runs would hold
// them) so the bound is checked without any timing dependence.
func TestPoolAdmissionDeterministic(t *testing.T) {
	g := FromEdges(3, true, []Edge{
		{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 1},
	})
	const K, Q = 2, 1
	p, err := NewPool(g, Options{}, PoolOptions{
		Sessions: K, QueueDepth: Q, QueueWait: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Simulate K executing solves: each would hold one ticket and one
	// session for its whole duration.
	held := make([]*Session, K)
	for i := range held {
		held[i] = <-p.slots
		<-p.tickets
	}

	// Q more queries are admitted and wait for a session.
	type outcome struct {
		res *Result
		err error
	}
	queued := make(chan outcome, Q)
	for i := 0; i < Q; i++ {
		go func() {
			res, err := p.Run(context.Background(), 0)
			queued <- outcome{res, err}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.queued.Load() < Q {
		if time.Now().After(deadline) {
			t.Fatal("queued queries never took their tickets")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// The K+Q+1-th call: every ticket is out, so this must shed
	// immediately, QueueWait notwithstanding.
	start := time.Now()
	if _, err := p.Run(context.Background(), 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow Run: err = %v, want ErrOverloaded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("overloaded Run blocked %v instead of failing fast", waited)
	}
	if s := p.Stats(); s.Shed != 1 || s.Queued != Q {
		t.Fatalf("stats = %+v, want Shed 1, Queued %d", s, Q)
	}

	// Release one session: the queued query runs to completion.
	p.slots <- held[0]
	out := <-queued
	if out.err != nil || out.res == nil || !out.res.Complete {
		t.Fatalf("queued query: %v, %+v", out.err, out.res)
	}
	if out.res.Dist[2] != 2 {
		t.Fatalf("queued query d(2) = %d, want 2", out.res.Dist[2])
	}

	// Restore the simulated holders and shut down cleanly.
	p.slots <- held[1]
	for i := 0; i < K; i++ {
		p.tickets <- struct{}{}
	}
	if err := p.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background(), 0); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("post-close Run: err = %v, want ErrPoolClosed", err)
	}
}

// TestPoolQueueWaitExpiry: an admitted query whose QueueWait elapses
// before a session frees up sheds with ErrOverloaded and returns its
// ticket.
func TestPoolQueueWaitExpiry(t *testing.T) {
	g := FromEdges(2, true, []Edge{{From: 0, To: 1, W: 1}})
	p, err := NewPool(g, Options{}, PoolOptions{
		Sessions: 1, QueueDepth: 1, QueueWait: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	held := <-p.slots // the one session is "busy" forever
	<-p.tickets

	if _, err := p.Run(context.Background(), 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded after queue wait", err)
	}
	if got := len(p.tickets); got != 1 {
		t.Fatalf("ticket not returned after expiry: %d free, want 1", got)
	}

	p.slots <- held
	p.tickets <- struct{}{}
	if err := p.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPoolQueuedCallerDeadlineExpiry pins the admission contract for a
// caller whose context deadline expires while the query is still
// QUEUED (admitted, ticket held, no session yet): Run returns a nil
// result with an error wrapping both ErrCancelled and
// context.DeadlineExceeded — never the deadline-degradation path,
// which requires a partial result that a queued query does not have —
// and the admission ticket is returned, so the pool's capacity is not
// leaked one ticket per impatient caller.
func TestPoolQueuedCallerDeadlineExpiry(t *testing.T) {
	g := FromEdges(2, true, []Edge{{From: 0, To: 1, W: 1}})
	p, err := NewPool(g, Options{}, PoolOptions{
		Sessions: 1, QueueDepth: 2, QueueWait: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	held := <-p.slots // the one session stays "busy" past the deadline
	<-p.tickets

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	res, err := p.Run(ctx, 0)
	if res != nil {
		t.Fatalf("queued query returned a result: %+v", res)
	}
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.DeadlineExceeded", err)
	}

	// The ticket must be back: capacity is Sessions+QueueDepth = 3, one
	// is held by the simulated in-flight solve.
	if got, want := len(p.tickets), cap(p.tickets)-1; got != want {
		t.Fatalf("tickets free = %d, want %d (ticket leaked)", got, want)
	}
	if got := p.queued.Load(); got != 0 {
		t.Fatalf("queued counter = %d, want 0", got)
	}

	// And the pool still has its full capacity: restore the session and
	// run Sessions+QueueDepth queries back-to-back successfully.
	p.slots <- held
	p.tickets <- struct{}{}
	for i := 0; i < cap(p.tickets); i++ {
		if res, err := p.Run(context.Background(), 0); err != nil || !res.Complete {
			t.Fatalf("post-expiry query %d: %v, %+v", i, err, res)
		}
	}
	if err := p.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSessionFallbackUsesSessionMetrics: on the s.solver == nil
// fallback path, Run must route through the session-owned metrics set
// rather than letting each call allocate a fresh one.
func TestSessionFallbackUsesSessionMetrics(t *testing.T) {
	g := FromEdges(3, true, []Edge{
		{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 1},
	})
	sess, err := NewSession(g, Options{Algorithm: AlgoDijkstra})
	if err != nil {
		t.Fatal(err)
	}
	if sess.solver != nil || sess.m == nil {
		t.Fatalf("want a fallback session with a metrics set, got solver=%v m=%v", sess.solver, sess.m)
	}
	for run := 0; run < 2; run++ {
		res, err := sess.Run(context.Background(), 0)
		if err != nil || res.Metrics == nil {
			t.Fatalf("run %d: %v, metrics %v", run, err, res.Metrics)
		}
		if res.Metrics.Relaxations == 0 {
			t.Fatalf("run %d: no relaxations recorded", run)
		}
		// The counters must have landed in the session's set — and be
		// per-run, not accumulated.
		if got := sess.m.Totals().Relaxations; got != res.Metrics.Relaxations {
			t.Fatalf("run %d: session set has %d relaxations, result has %d",
				run, got, res.Metrics.Relaxations)
		}
	}
}
