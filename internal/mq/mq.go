// Package mq implements the MultiQueue relaxed concurrent priority
// queue of Rihani, Sanders and Dementiev (SPAA 2015), with the
// engineering refinements of Williams, Sanders and Dementiev (ESA 2021)
// that the Wasp paper's evaluation configures: c·p lock-protected d-ary
// heaps, two-choice deletion, stickiness (s consecutive pops reuse the
// same queue), and per-thread insertion/deletion buffers of size b.
//
// The paper's baseline configuration is c = 2, d = 8, b = 16, with s
// tuned per graph; those are the defaults here.
package mq

import (
	"sync"
	"sync/atomic"

	"wasp/internal/heap"
	"wasp/internal/rng"
)

// Config parameterizes a MultiQueue.
type Config struct {
	Threads    int // p: number of worker threads
	C          int // queues per thread (default 2)
	Arity      int // heap arity (default 8)
	Stickiness int // s: consecutive pops on the same queue (default 4)
	BufferSize int // b: insertion/deletion buffer entries (default 16)
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.C <= 0 {
		c.C = 2
	}
	if c.Arity <= 0 {
		c.Arity = 8
	}
	if c.Stickiness <= 0 {
		c.Stickiness = 4
	}
	if c.BufferSize <= 0 {
		c.BufferSize = 16
	}
	return c
}

// queue is one lock-protected d-ary heap with its cached top priority.
// topPrio is maintained under the lock but read optimistically without
// it during two-choice comparisons, as in the engineered MultiQueue.
type queue struct {
	mu      sync.Mutex
	heap    *heap.DAry
	topPrio atomic.Uint64 // ^0 when empty
	_       [40]byte      // pad to a cache line boundary
}

func (q *queue) refreshTop() {
	if it, ok := q.heap.Top(); ok {
		q.topPrio.Store(it.Prio)
	} else {
		q.topPrio.Store(^uint64(0))
	}
}

// MQ is a MultiQueue. Construct with New; use per-thread Handles.
type MQ struct {
	cfg    Config
	queues []*queue
	size   atomic.Int64 // approximate global element count
}

// New returns a MultiQueue for cfg.Threads workers.
func New(cfg Config) *MQ {
	cfg = cfg.withDefaults()
	n := cfg.Threads * cfg.C
	m := &MQ{cfg: cfg, queues: make([]*queue, n)}
	for i := range m.queues {
		q := &queue{heap: heap.New(cfg.Arity, 64)}
		q.topPrio.Store(^uint64(0))
		m.queues[i] = q
	}
	return m
}

// Empty reports whether the MultiQueue appears globally empty. Exact
// when no concurrent operations are in flight (termination phases).
func (m *MQ) Empty() bool { return m.size.Load() == 0 }

// Len returns the approximate number of queued items.
func (m *MQ) Len() int { return int(m.size.Load()) }

// Handle is a per-thread accessor carrying the thread's RNG, stickiness
// state and insertion/deletion buffers. Handles are not safe for
// concurrent use; each worker owns one.
type Handle struct {
	m      *MQ
	r      *rng.Xoshiro256
	sticky int // remaining pops on stickyQ
	stickQ int
	insBuf []heap.Item
	delBuf []heap.Item
}

// NewHandle returns the handle for worker id.
func (m *MQ) NewHandle(id int) *Handle {
	return &Handle{
		m:      m,
		r:      rng.NewXoshiro256(uint64(id)*0x9e3779b97f4a7c15 + 1),
		insBuf: make([]heap.Item, 0, m.cfg.BufferSize),
		delBuf: make([]heap.Item, 0, m.cfg.BufferSize),
	}
}

// Push inserts an item, buffering up to b insertions before acquiring a
// random queue's lock to flush.
func (h *Handle) Push(it heap.Item) {
	h.insBuf = append(h.insBuf, it)
	h.m.size.Add(1)
	if len(h.insBuf) >= h.m.cfg.BufferSize {
		h.flushInsertions()
	}
}

func (h *Handle) flushInsertions() {
	q := h.m.queues[h.r.IntN(len(h.m.queues))]
	q.mu.Lock()
	for _, it := range h.insBuf {
		q.heap.Push(it)
	}
	q.refreshTop()
	q.mu.Unlock()
	h.insBuf = h.insBuf[:0]
}

// Pop removes an item of (relaxed) minimal priority. It first serves the
// thread's deletion buffer, then applies sticky two-choice selection
// over the shared queues. ok is false when every queue and buffer was
// observed empty; because other threads may hold buffered items, callers
// combine this with a global termination protocol.
func (h *Handle) Pop() (heap.Item, bool) {
	if n := len(h.delBuf); n > 0 {
		it := h.delBuf[n-1]
		h.delBuf = h.delBuf[:n-1]
		h.m.size.Add(-1)
		return it, true
	}
	// Serve own insertion buffer when queues run dry before locking.
	for attempt := 0; attempt < 2*len(h.m.queues); attempt++ {
		qi := h.pickQueue()
		q := h.m.queues[qi]
		q.mu.Lock()
		if q.heap.Empty() {
			q.mu.Unlock()
			h.sticky = 0
			continue
		}
		// Fill the deletion buffer from this queue.
		n := h.m.cfg.BufferSize
		for i := 0; i < n; i++ {
			it, ok := q.heap.Pop()
			if !ok {
				break
			}
			h.delBuf = append(h.delBuf, it)
		}
		q.refreshTop()
		q.mu.Unlock()
		// delBuf was filled in ascending priority order; reverse so the
		// best item is served first from the tail.
		for i, j := 0, len(h.delBuf)-1; i < j; i, j = i+1, j-1 {
			h.delBuf[i], h.delBuf[j] = h.delBuf[j], h.delBuf[i]
		}
		it := h.delBuf[len(h.delBuf)-1]
		h.delBuf = h.delBuf[:len(h.delBuf)-1]
		h.m.size.Add(-1)
		return it, true
	}
	// Queues look empty: serve buffered insertions locally.
	if n := len(h.insBuf); n > 0 {
		best := 0
		for i := 1; i < n; i++ {
			if h.insBuf[i].Prio < h.insBuf[best].Prio {
				best = i
			}
		}
		it := h.insBuf[best]
		h.insBuf[best] = h.insBuf[n-1]
		h.insBuf = h.insBuf[:n-1]
		h.m.size.Add(-1)
		return it, true
	}
	return heap.Item{}, false
}

// pickQueue applies stickiness and two-choice selection.
func (h *Handle) pickQueue() int {
	if h.sticky > 0 {
		h.sticky--
		return h.stickQ
	}
	a := h.r.IntN(len(h.m.queues))
	b := h.r.IntN(len(h.m.queues))
	if h.m.queues[b].topPrio.Load() < h.m.queues[a].topPrio.Load() {
		a = b
	}
	h.stickQ = a
	h.sticky = h.m.cfg.Stickiness - 1
	return a
}
