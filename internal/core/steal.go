package core

import (
	"wasp/internal/chunk"
	"wasp/internal/fault"
	"wasp/internal/trace"
)

// stealRound performs one invocation of the work-stealing protocol.
// next is the priority of the thief's best local bucket (infPrio when it
// has none); PolicyWasp only steals work at least that good.
//
// The worker's stealing flag goes up before the round's first steal
// CAS (stealFrom) and, on success, curr is re-published to the best
// stolen priority before the flag drops — the ordering the termination
// protocol relies on (term.go). A round that finds every inspected
// deque empty, or holding work only above next, never raises it, so it
// stores to no shared line, and is not traced: only a contended miss,
// a round that raised the flag but won no chunk, records a StealMiss.
//
// The policies collect chunks in w.stolen, which has room for one per
// victim, so a round allocates nothing; the result aliases it until the
// next round. A round that won nothing returns nil, which callers test.
func (w *worker) stealRound(next uint64) []*chunk.Chunk {
	if w.opt.Workers == 1 {
		return nil
	}
	w.m.StealRounds++
	w.stolen = w.stolen[:0]
	switch w.opt.Policy {
	case PolicyRandom:
		w.stealRandom()
	case PolicyTwoChoice:
		w.stealTwoChoice()
	default:
		w.stealWasp(next)
	}
	stolen := w.stolen
	if len(stolen) == 0 {
		if w.stealing.Load() { // a contended miss
			w.opt.Trace.Add(w.id, trace.StealMiss, next, 0)
			w.stealing.Store(false)
		}
		return nil
	}
	// In-flight-steal window (§4.3): the chunks left their victims'
	// deques but this thief's curr still reads stale/idle. The stealing
	// flag, always up after a won CAS, is what keeps the termination
	// scan honest here; the fault hook stretches the window in tests.
	fault.Inject(fault.PrePublish, w.id)
	minPrio := infPrio
	for _, c := range stolen {
		if c.Prio < minPrio {
			minPrio = c.Prio
		}
	}
	w.ops.Add(1) // invalidates any in-flight termination scan
	w.setCurr(minPrio)
	w.m.StealHits += int64(len(stolen))
	w.opt.Trace.Add(w.id, trace.StealHit, minPrio, uint64(len(stolen)))
	w.stealing.Store(false)
	return stolen
}

// stealFrom is one steal attempt against victim, shared by every
// policy. A deque that reads empty is skipped, and so is a victim whose
// level is above next (Algorithm 2's curr ≤ next rule; the random
// policies and idle rounds pass infPrio, which every level meets);
// otherwise the stealing flag is raised, once per round, and a chunk
// is CASed off the top. The deque is tested first because its indices
// move only when the victim pushes or pops a whole chunk, and because
// curr is the level of the victim's latest exposed or stolen work: a
// bucket advance publishes nothing until a chunk at the new level is
// exposed (expose), so curr describes the deque's chunks only while
// the deque holds some.
func (w *worker) stealFrom(victim *worker, next uint64) *chunk.Chunk {
	w.m.StealAttempts++
	fault.Inject(fault.StealAttempt, w.id)
	if victim.dq.Empty() || victim.curr.Load() > next {
		return nil
	}
	if !w.stealing.Load() {
		w.stealing.Store(true)
	}
	return victim.dq.Steal()
}

// stealWasp is Algorithm 2: walk NUMA tiers from closest to furthest;
// within a tier, attempt to steal one chunk from every victim whose
// current priority level is at least as urgent as next (stealFrom
// applies the rule); stop at the first tier that yields anything.
// Chunks go to w.stolen.
func (w *worker) stealWasp(next uint64) {
	for ti, tier := range w.tiers {
		for _, t := range tier {
			if c := w.stealFrom(w.workers[t], next); c != nil {
				w.stolen = append(w.stolen, c)
			}
		}
		if n := len(w.stolen); n > 0 {
			// ti is the proximity rank of the yielding tier (empty
			// tiers are trimmed by numa.Tiers, so rank, not absolute
			// distance) — the locality breakdown of §4.2.
			if ti < len(w.m.TierHits) {
				w.m.TierHits[ti] += int64(n)
			}
			return
		}
	}
}

// stealRandom is the traditional protocol evaluated in §4.2: a uniform
// random victim, any priority, up to Retries attempts. A chunk won goes
// to w.stolen.
func (w *worker) stealRandom() {
	p := w.opt.Workers
	for attempt := 0; attempt < w.opt.Retries; attempt++ {
		t := w.r.IntN(p)
		if t == w.id {
			continue
		}
		if c := w.stealFrom(w.workers[t], infPrio); c != nil {
			w.stolen = append(w.stolen, c)
			return
		}
	}
}

// stealTwoChoice is the MultiQueue-like protocol of §4.2: two random
// victims, steal from the one advertising the better priority. It
// compares published levels (curr), which trail a busy victim's
// private bucket advances until it exposes work. A chunk won goes to
// w.stolen.
func (w *worker) stealTwoChoice() {
	p := w.opt.Workers
	for attempt := 0; attempt < w.opt.Retries; attempt++ {
		a := w.r.IntN(p)
		b := w.r.IntN(p)
		if a == w.id {
			a = b
		}
		if b == w.id {
			b = a
		}
		if a == w.id {
			continue
		}
		t := a
		if w.workers[b].curr.Load() < w.workers[a].curr.Load() && b != w.id {
			t = b
		}
		if c := w.stealFrom(w.workers[t], infPrio); c != nil {
			w.stolen = append(w.stolen, c)
			return
		}
	}
}
