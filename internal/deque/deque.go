// Package deque implements the dynamic circular work-stealing deque of
// Chase and Lev (SPAA 2005), specialized to *chunk.Chunk elements. It is
// the "current bucket" of the Wasp algorithm (paper §4.3): the owner
// worker pushes and pops chunks at the bottom; thief workers steal
// chunks from the top with a CAS. The deque is lock-free; contention
// between the owner and thieves arises only when a single element
// remains and is resolved by CAS on the top index.
//
// Growth is triggered only by the owner pushing into a full ring and
// does not invalidate concurrent steals: the old ring stays readable
// (growth copies, never clears) and the top/bottom indices are
// monotonic unbounded 64-bit counters, as in the paper's description.
//
// Go's sync/atomic operations are sequentially consistent, so the
// memory-fence subtleties of the original weak-memory formulation do
// not arise.
package deque

import (
	"sync/atomic"

	"wasp/internal/chunk"
)

// ring is a power-of-two circular array of chunk pointers.
type ring struct {
	mask int64
	buf  []atomic.Pointer[chunk.Chunk]
}

func newRing(capacity int64) *ring {
	return &ring{mask: capacity - 1, buf: make([]atomic.Pointer[chunk.Chunk], capacity)}
}

func (r *ring) get(i int64) *chunk.Chunk    { return r.buf[i&r.mask].Load() }
func (r *ring) put(i int64, c *chunk.Chunk) { r.buf[i&r.mask].Store(c) }
func (r *ring) grow(bottom, top int64) *ring {
	next := newRing((r.mask + 1) * 2)
	for i := top; i != bottom; i++ {
		next.put(i, r.get(i))
	}
	return next
}

// Deque is a single-owner, multi-thief chunk deque.
// The zero value is not usable; call New.
type Deque struct {
	top    atomic.Int64 // next index thieves steal from
	_      [56]byte     // keep top and bottom on separate cache lines
	bottom atomic.Int64 // next index the owner pushes to
	_      [56]byte
	array  atomic.Pointer[ring]
}

// New returns an empty deque with the given initial capacity, rounded up
// to a power of two (minimum 8).
func New(capacity int) *Deque {
	c := int64(8)
	for int(c) < capacity {
		c *= 2
	}
	d := &Deque{}
	d.array.Store(newRing(c))
	return d
}

// Empty reports whether the deque appears empty. Concurrent operations
// may change the answer immediately; callers treat it as a hint except
// during termination detection, where the stability argument in
// internal/core/term.go makes the read exact.
func (d *Deque) Empty() bool {
	b := d.bottom.Load()
	t := d.top.Load()
	return b <= t
}

// Len returns the apparent number of elements.
func (d *Deque) Len() int {
	b := d.bottom.Load()
	t := d.top.Load()
	if b <= t {
		return 0
	}
	return int(b - t)
}

// PushBottom appends c at the bottom. Owner-only.
func (d *Deque) PushBottom(c *chunk.Chunk) {
	b := d.bottom.Load()
	t := d.top.Load()
	a := d.array.Load()
	if b-t > a.mask { // full
		a = a.grow(b, t)
		d.array.Store(a)
	}
	a.put(b, c)
	d.bottom.Store(b + 1)
}

// PopBottom removes and returns the most recently pushed chunk.
// Owner-only. Returns nil if the deque is empty or the last element was
// lost to a concurrent thief. An empty deque is detected before the
// reservation store: only the owner moves bottom and thieves only
// advance top, so a deque the owner sees empty stays empty until the
// owner pushes, and the pop costs two loads and no store.
func (d *Deque) PopBottom() *chunk.Chunk {
	b := d.bottom.Load()
	if b <= d.top.Load() {
		return nil
	}
	b--
	a := d.array.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if b < t { // thieves emptied it since the check: undo
		d.bottom.Store(b + 1)
		return nil
	}
	c := a.get(b)
	if b != t {
		return c // more than one element: no race possible
	}
	// Single element left: race with thieves via CAS on top.
	won := d.top.CompareAndSwap(t, t+1)
	d.bottom.Store(b + 1)
	if !won {
		return nil
	}
	return c
}

// Steal removes and returns the oldest chunk (top end). Thief-safe:
// any worker other than the owner may call it concurrently. Returns nil
// when the deque is empty or the steal lost a race.
func (d *Deque) Steal() *chunk.Chunk {
	t := d.top.Load()
	b := d.bottom.Load()
	if b <= t {
		return nil
	}
	a := d.array.Load()
	c := a.get(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil
	}
	return c
}
