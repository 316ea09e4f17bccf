// Package obim implements an Ordered-By-Integer-Metric scheduler in the
// style of Galois (Lenharth, Nguyen, Pingali, Euro-Par 2015), the
// substrate of the Galois asynchronous Δ-stepping baseline. As the Wasp
// paper's §2 summarizes it: "Vertices are first pushed to thread-local
// bags, while excess vertices go into global bags. Threads work on the
// highest-priority local bag and then synchronize with the global bag
// to find higher-priority work."
//
// Each priority level has a global bag (a mutex-protected list of
// chunks) and per-thread local chunk stacks. A thread fills a local
// chunk; when the chunk is full it is published to the global bag. Pops
// come from the best local level, after consulting the globally
// advertised best level so threads migrate toward high-priority work.
package obim

import (
	"sort"
	"sync"
	"sync/atomic"

	"wasp/internal/chunk"
)

// globalLevel is one priority level's shared bag.
type globalLevel struct {
	mu     sync.Mutex
	chunks chunk.List
}

// Scheduler is an OBIM-like priority scheduler over vertex chunks.
type Scheduler struct {
	mu     sync.Mutex
	levels map[uint64]*globalLevel
	best   atomic.Uint64 // advertised lowest level with global work
	size   atomic.Int64  // global chunk count (not counting local ones)
}

// New returns an empty scheduler.
func New() *Scheduler {
	s := &Scheduler{levels: make(map[uint64]*globalLevel)}
	s.best.Store(^uint64(0))
	return s
}

// GlobalLen returns the number of globally visible chunks.
func (s *Scheduler) GlobalLen() int { return int(s.size.Load()) }

func (s *Scheduler) level(prio uint64) *globalLevel {
	s.mu.Lock()
	l, ok := s.levels[prio]
	if !ok {
		l = &globalLevel{}
		s.levels[prio] = l
	}
	s.mu.Unlock()
	return l
}

// publish moves a full chunk into the global bag for its priority.
// Once pushed the chunk belongs to whoever pops it — a thief may drain
// and recycle it (chunk.Pool.Get resets Prio) before the push returns —
// so the priority is read once, before the push.
func (s *Scheduler) publish(c *chunk.Chunk) {
	prio := c.Prio
	l := s.level(prio)
	l.mu.Lock()
	l.chunks.Push(c)
	l.mu.Unlock()
	s.size.Add(1)
	// Advertise if this is better than the current best. Lossy (CAS
	// loop without retry on races) as in OBIM: the advertisement is a
	// hint, not a guarantee.
	for {
		best := s.best.Load()
		if prio >= best || s.best.CompareAndSwap(best, prio) {
			return
		}
	}
}

// takeGlobal pops one chunk at exactly prio from the global bag.
func (s *Scheduler) takeGlobal(prio uint64) *chunk.Chunk {
	s.mu.Lock()
	l, ok := s.levels[prio]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	l.mu.Lock()
	c := l.chunks.Pop()
	l.mu.Unlock()
	if c != nil {
		s.size.Add(-1)
	}
	return c
}

// takeGlobalBest scans the global levels in priority order and pops a
// chunk from the first non-empty bag. Levels are snapshotted under the
// map lock, then probed under their own locks (a level's emptiness can
// only be read while holding its lock).
func (s *Scheduler) takeGlobalBest() *chunk.Chunk {
	s.mu.Lock()
	type cand struct {
		prio  uint64
		level *globalLevel
	}
	cands := make([]cand, 0, len(s.levels))
	for prio, l := range s.levels {
		cands = append(cands, cand{prio, l})
	}
	s.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool { return cands[i].prio < cands[j].prio })
	for _, c := range cands {
		c.level.mu.Lock()
		ck := c.level.chunks.Pop()
		c.level.mu.Unlock()
		if ck != nil {
			s.size.Add(-1)
			s.best.Store(c.prio)
			return ck
		}
	}
	return nil
}

// Handle is a per-thread view of the scheduler.
type Handle struct {
	s     *Scheduler
	pool  chunk.Pool
	local map[uint64]*chunk.Chunk // partially filled local chunk per level
	curr  *chunk.Chunk            // chunk being drained
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
	}
	c.Push(v)
	if c.Full() {
		delete(h.local, prio)
		h.s.publish(c)
	}
}

// Pop returns the next vertex to process and its priority. It drains
// the current chunk, then picks the best local level — checking the
// globally advertised best level first, so the thread migrates to
// higher-priority work when it exists (the OBIM synchronization step).
// ok is false when neither local nor global work was found; because
// other threads may still publish, callers pair this with a
// termination protocol.
func (h *Handle) Pop() (v uint32, prio uint64, ok bool) {
	for {
		if h.curr != nil {
			if x, has := h.curr.Pop(); has {
				return x, h.curr.Prio, true
			}
			h.pool.Put(h.curr)
			h.curr = nil
		}
		// Find the best local level.
		bestLocal := ^uint64(0)
		for p := range h.local {
			if p < bestLocal {
				bestLocal = p
			}
		}
		// Synchronize with the global bag: take globally advertised
		// higher-priority work when it beats our best local level.
		if g := h.s.best.Load(); g < bestLocal {
			if c := h.s.takeGlobal(g); c != nil {
				h.curr = c
				continue
			}
			// Advertisement was stale; fall through to a full scan.
			if c := h.s.takeGlobalBest(); c != nil {
				h.curr = c
				continue
			}
		}
		if bestLocal != ^uint64(0) {
			h.curr = h.local[bestLocal]
			delete(h.local, bestLocal)
			continue
		}
		if c := h.s.takeGlobalBest(); c != nil {
			h.curr = c
			continue
		}
		return 0, 0, false
	}
}
