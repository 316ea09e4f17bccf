// Package metrics collects the per-worker execution counters behind the
// paper's analysis figures: edge-relaxation counts (Figure 8's priority
// drift analysis), steal-protocol statistics (§4.2), barrier wait time
// (Figure 1), and queue-operation time (Figure 2). Counters are plain
// per-worker fields — no atomics on the hot path — padded to cache
// lines and summed once after a run.
package metrics

import "time"

// MaxStealTiers bounds the per-tier steal breakdown: Wasp's NUMA
// hierarchies expose at most three victim tiers (same node, same
// socket, remote — numa.Topology.Tiers).
const MaxStealTiers = 3

// Worker holds one worker's counters. Workers update their own struct
// without synchronization; aggregation happens after all workers join.
type Worker struct {
	Relaxations    int64 // edge relaxations attempted (paper Fig 8 counts these)
	Improvements   int64 // relaxations that lowered a distance
	StaleSkips     int64 // vertices skipped by the staleness check (Alg 1 line 20)
	StealAttempts  int64 // victims inspected, empty ones and ones above the thief's level included
	StealHits      int64 // chunks successfully stolen
	StealRounds    int64 // work_stealing() invocations
	ChunksDrained  int64 // chunks fully processed
	BucketAdvances int64 // moves to a new local priority level
	QueueOpNS      int64 // time inside shared-queue operations (Fig 2)
	BarrierNS      int64 // time blocked at barriers (Fig 1)
	StealNS        int64 // time inside steal rounds (Wasp breakdown)
	IdleNS         int64 // time idling at priority ∞ (Wasp breakdown)

	// TierHits breaks StealHits down by the proximity rank of the tier
	// the chunks came from: index 0 is the thief's nearest non-empty
	// tier (same NUMA node on a full hierarchy), 2 the furthest. The
	// paper's §4.2 locality argument is exactly that index 0 should
	// dominate. Filled by PolicyWasp only — the random policies have no
	// tier structure.
	TierHits [MaxStealTiers]int64

	_ [32]byte // pad to reduce false sharing between adjacent workers
}

// Add sums o's counters into w.
func (w *Worker) Add(o *Worker) {
	w.Relaxations += o.Relaxations
	w.Improvements += o.Improvements
	w.StaleSkips += o.StaleSkips
	w.StealAttempts += o.StealAttempts
	w.StealHits += o.StealHits
	w.StealRounds += o.StealRounds
	w.ChunksDrained += o.ChunksDrained
	w.BucketAdvances += o.BucketAdvances
	w.QueueOpNS += o.QueueOpNS
	w.BarrierNS += o.BarrierNS
	w.StealNS += o.StealNS
	w.IdleNS += o.IdleNS
	for i := range w.TierHits {
		w.TierHits[i] += o.TierHits[i]
	}
}

// Set is a fixed collection of per-worker metrics.
type Set struct {
	Workers []Worker
}

// NewSet returns metrics storage for p workers.
func NewSet(p int) *Set { return &Set{Workers: make([]Worker, p)} }

// Reset zeroes every worker's counters so the set can be reused across
// runs without reallocating. Callers must ensure no worker is
// concurrently updating its counters (i.e. between runs).
func (s *Set) Reset() {
	for i := range s.Workers {
		s.Workers[i] = Worker{}
	}
}

// Totals sums all workers' counters into a single Worker value.
func (s *Set) Totals() Worker {
	var t Worker
	for i := range s.Workers {
		t.Add(&s.Workers[i])
	}
	return t
}

// PerWorker returns a copy of every worker's counters — the breakdown
// Totals flattens. Callers get owned storage: reading it is safe while
// the set is later reset or reused (but not while workers are
// concurrently updating, same as Totals).
func (s *Set) PerWorker() []Worker {
	out := make([]Worker, len(s.Workers))
	copy(out, s.Workers)
	return out
}

// QueueOpTime returns the summed shared-queue time.
func (s *Set) QueueOpTime() time.Duration {
	return time.Duration(s.Totals().QueueOpNS)
}

// BarrierTime returns the summed barrier wait time.
func (s *Set) BarrierTime() time.Duration {
	return time.Duration(s.Totals().BarrierNS)
}
