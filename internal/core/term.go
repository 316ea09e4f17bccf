package core

import "wasp/internal/fault"

// Termination detection (paper §4.3, hardened).
//
// The paper's protocol: an idle worker publishes curr = ∞ and scans
// every other worker's curr; if all are ∞ it stops. As published, the
// protocol has an in-flight-steal window: a thief that has CASed the
// last chunk out of a victim's deque but not yet re-published its own
// curr is invisible to the scan — the system can look globally idle
// while a chunk sits in the thief's hands. Two mechanisms close it:
//
//  1. A per-worker stealing flag, raised before the round's first
//     steal CAS and lowered only after the thief's curr reflects any
//     stolen work (stealRound, stealFrom). A round that finds every
//     deque it inspects empty attempts no CAS, holds no stolen work
//     and never raises the flag. A thief holding freshly stolen work
//     is therefore always visible as either "stealing" or "active
//     (finite curr)".
//
//  2. A global successful-steal counter (worker.ops), incremented while
//     the flag is up, between the steal CAS and the curr update. The
//     termination scan is double-checked against it: read the counter,
//     scan every worker twice, re-read the counter — any steal that
//     moved work during the scan bumps the counter and invalidates the
//     decision. This defeats the remaining interleaving where a thief
//     is scanned before it raises its flag and its victim is scanned
//     after the chunk left the victim's deque.
//
// A worker is idle iff curr == ∞ ∧ ¬stealing ∧ its deque is empty.
// Owners publish ∞ only after their buffer, deque and local buckets
// drained, and re-publish a finite curr (inside a flag bracket that
// bumps the counter) before holding work again, so once every worker
// satisfies the predicate with no counter movement, no work exists and
// none can appear: the state is stable and the decision is final.
//
// Bucket advances publish curr lazily (expose): a busy worker's curr
// is the level of its latest exposed or stolen work, which may trail
// the bucket it drains. The scan needs only "finite while not idle",
// and that holds: the published level is finite from Reset or the
// steal hit that ended the last idle spell, and stays finite until the
// owner itself stores ∞ at idle entry.
func (w *worker) allIdle() bool {
	c := w.ops.Load()
	if !w.scanIdle() || !w.scanIdle() {
		return false
	}
	return w.ops.Load() == c
}

func (w *worker) scanIdle() bool {
	// Jitter hook: in fault-injection stress runs this pushes scan
	// passes into the middle of concurrent steals, exercising the
	// counter-based invalidation above.
	fault.Inject(fault.TermScan, w.id)
	for _, other := range w.workers {
		if other.stealing.Load() {
			return false
		}
		if other.curr.Load() != infPrio {
			return false
		}
		if !other.dq.Empty() {
			return false
		}
	}
	return true
}
