// Package obim implements an Ordered-By-Integer-Metric scheduler in the
// style of Galois (Lenharth, Nguyen, Pingali, Euro-Par 2015), the
// substrate of the Galois asynchronous Δ-stepping baseline. As the Wasp
// paper's §2 summarizes it: "Vertices are first pushed to thread-local
// bags, while excess vertices go into global bags. Threads work on the
// highest-priority local bag and then synchronize with the global bag
// to find higher-priority work."
//
// A thread fills one local chunk per priority level; a full chunk is
// published to its level's global bag. Both sides keep their levels
// ordered in a min-heap, so finding the best level never scans or sorts:
// the global heap's root is advertised in one atomic word, and a thread
// takes a published chunk only when the advertised level beats its best
// local one (the OBIM synchronization step). A level leaves the global
// bags and heap as soon as it is drained.
package obim

import (
	"sync"
	"sync/atomic"

	"wasp/internal/chunk"
	"wasp/internal/heap"
)

// none is the level advertised when nothing is published.
const none = ^uint64(0)

// Scheduler is an OBIM-like priority scheduler over vertex chunks. One
// mutex guards the global bags and their heap. It is held only for a
// list push or pop and at most one heap update, and every take must read
// the heap's root anyway, so a lock per level would add locking without
// taking contention off the root.
type Scheduler struct {
	mu     sync.Mutex
	levels map[uint64]*chunk.List // global bag per level holding chunks
	order  heap.DAry              // the keys of levels, lowest first
	best   atomic.Uint64          // order's root, or none
	size   atomic.Int64           // published chunks (not counting local ones)
}

// New returns an empty scheduler.
func New() *Scheduler {
	s := &Scheduler{levels: make(map[uint64]*chunk.List)}
	s.best.Store(none)
	return s
}

// GlobalLen returns the number of globally visible chunks.
func (s *Scheduler) GlobalLen() int { return int(s.size.Load()) }

// advertise stores order's root in best; s.mu must be held.
func (s *Scheduler) advertise() {
	best := none
	if top, ok := s.order.Top(); ok {
		best = top.Prio
	}
	s.best.Store(best)
}

// publish moves a full chunk into the global bag for its priority.
func (s *Scheduler) publish(c *chunk.Chunk) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bag := s.levels[c.Prio]
	if bag == nil {
		bag = new(chunk.List)
		s.levels[c.Prio] = bag
		s.order.Push(heap.Item{Prio: c.Prio})
		s.advertise()
	}
	bag.Push(c)
	s.size.Add(1)
}

// take pops a chunk from the lowest published level if that level lies
// below bound, and otherwise returns nil.
func (s *Scheduler) take(bound uint64) *chunk.Chunk {
	s.mu.Lock()
	defer s.mu.Unlock()
	top, ok := s.order.Top()
	if !ok || top.Prio >= bound {
		return nil
	}
	bag := s.levels[top.Prio]
	c := bag.Pop()
	if bag.Empty() {
		delete(s.levels, top.Prio)
		s.order.Pop()
		s.advertise()
	}
	s.size.Add(-1)
	return c
}

// Handle is a per-thread view of the scheduler.
type Handle struct {
	s     *Scheduler
	pool  chunk.Pool
	local map[uint64]*chunk.Chunk // partially filled local chunk per level
	// order holds the level of every local chunk, lowest first, plus
	// levels whose chunk has since been published or taken: Pop skips
	// those when they reach the top.
	order heap.DAry
	curr  *chunk.Chunk // chunk being drained
}

// NewHandle returns a handle for one worker.
func (s *Scheduler) NewHandle() *Handle {
	return &Handle{s: s, local: make(map[uint64]*chunk.Chunk)}
}

// Push adds vertex v at priority prio. Full local chunks are published
// to the global bag.
func (h *Handle) Push(v uint32, prio uint64) {
	// Fast path: the chunk being drained has the same priority.
	if h.curr != nil && h.curr.Prio == prio && !h.curr.Full() {
		h.curr.Push(v)
		return
	}
	c := h.local[prio]
	if c == nil {
		c = h.pool.Get()
		c.Prio = prio
		h.local[prio] = c
		h.order.Push(heap.Item{Prio: prio})
	}
	c.Push(v)
	if c.Full() {
		delete(h.local, prio)
		h.s.publish(c)
	}
}

// Pop returns the next vertex to process and its priority. It drains
// the current chunk, then takes a published chunk if one lies below the
// best local level — so the thread migrates to higher-priority work
// when it exists — and otherwise the best local chunk. ok is false when
// neither local nor global work was found; because other threads may
// still publish, callers pair this with a termination protocol.
func (h *Handle) Pop() (v uint32, prio uint64, ok bool) {
	for {
		if h.curr != nil {
			if x, has := h.curr.Pop(); has {
				return x, h.curr.Prio, true
			}
			h.pool.Put(h.curr)
			h.curr = nil
		}
		local := none
		for top, has := h.order.Top(); has; top, has = h.order.Top() {
			if h.local[top.Prio] != nil {
				local = top.Prio
				break
			}
			h.order.Pop()
		}
		if h.s.best.Load() < local {
			if c := h.s.take(local); c != nil {
				h.curr = c
				continue
			}
		}
		if local == none {
			return 0, 0, false
		}
		h.curr = h.local[local]
		delete(h.local, local)
		h.order.Pop()
	}
}
