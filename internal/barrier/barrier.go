// Package barrier provides the reusable synchronization barrier used by
// GAP's synchronous Δ-stepping baseline: a mutex and condition variable
// over a phase counter, breakable so that a panicking party cannot
// strand its siblings. The barrier keeps no clock; gapds times each
// Wait into its workers' metrics (BarrierNS), the overhead the paper's
// Figure 1 reports for the GAP implementation.
package barrier

import "sync"

// Barrier is a reusable barrier for a fixed number of parties.
type Barrier struct {
	parties int
	mu      sync.Mutex
	cond    *sync.Cond
	count   int
	phase   uint64
	broken  bool
}

// New returns a Barrier for n parties.
func New(n int) *Barrier {
	b := &Barrier{parties: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks the calling party until all parties have called Wait,
// then releases them all. On a broken barrier Wait returns immediately
// (see Break).
func (b *Barrier) Wait() {
	b.mu.Lock()
	if b.broken {
		b.mu.Unlock()
		return
	}
	phase := b.phase
	b.count++
	if b.count == b.parties {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
	} else {
		for b.phase == phase && !b.broken {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// Break permanently breaks the barrier: every current waiter is
// released and every future Wait returns immediately. A party that
// panics between two barriers would otherwise strand its siblings in
// Wait forever — panic-containment paths call Break before unwinding
// so the survivors can observe Broken and drain.
func (b *Barrier) Break() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Broken reports whether the barrier has been broken. After a Wait
// that returned because of Break, callers must not touch step-shared
// state (the phase protocol no longer orders accesses) — check Broken
// first and bail out.
func (b *Barrier) Broken() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.broken
}
