package metrics

import (
	"testing"
	"time"
)

func TestTotals(t *testing.T) {
	s := NewSet(3)
	s.Workers[0].Relaxations = 10
	s.Workers[1].Relaxations = 20
	s.Workers[2].Relaxations = 30
	s.Workers[0].StealHits = 1
	s.Workers[2].BarrierNS = int64(2 * time.Millisecond)
	s.Workers[1].QueueOpNS = int64(3 * time.Millisecond)

	tot := s.Totals()
	if tot.Relaxations != 60 {
		t.Fatalf("relaxations = %d", tot.Relaxations)
	}
	if tot.StealHits != 1 {
		t.Fatalf("steal hits = %d", tot.StealHits)
	}
	if s.BarrierTime() != 2*time.Millisecond {
		t.Fatalf("barrier time = %v", s.BarrierTime())
	}
	if s.QueueOpTime() != 3*time.Millisecond {
		t.Fatalf("queue time = %v", s.QueueOpTime())
	}
}

func TestAllFieldsAggregated(t *testing.T) {
	s := NewSet(2)
	w := &s.Workers[0]
	w.Relaxations = 1
	w.Improvements = 2
	w.StaleSkips = 3
	w.StealAttempts = 4
	w.StealHits = 5
	w.StealRounds = 6
	w.ChunksDrained = 7
	w.BucketAdvances = 8
	w.QueueOpNS = 9
	w.BarrierNS = 10
	w.StealNS = 11
	w.IdleNS = 12
	w.TierHits = [MaxStealTiers]int64{13, 14, 15}
	tot := s.Totals()
	if tot.Relaxations != 1 || tot.Improvements != 2 || tot.StaleSkips != 3 ||
		tot.StealAttempts != 4 || tot.StealHits != 5 || tot.StealRounds != 6 ||
		tot.ChunksDrained != 7 || tot.BucketAdvances != 8 ||
		tot.QueueOpNS != 9 || tot.BarrierNS != 10 || tot.StealNS != 11 ||
		tot.IdleNS != 12 || tot.TierHits != [MaxStealTiers]int64{13, 14, 15} {
		t.Fatalf("totals dropped a field: %+v", tot)
	}
}

// TestSetReset: Reset zeroes every counter of every worker so a session
// can reuse one Set across solves.
func TestSetReset(t *testing.T) {
	s := NewSet(2)
	s.Workers[0].Relaxations = 5
	s.Workers[0].StealHits = 2
	s.Workers[1].IdleNS = 99
	s.Workers[1].QueueOpNS = int64(3 * time.Millisecond)
	s.Reset()
	tot := s.Totals()
	if tot != (Worker{}) {
		t.Fatalf("counters survive Reset: %+v", tot)
	}
}

// TestPerWorkerSumsToTotals: the per-worker breakdown must be lossless —
// summing every counter of every PerWorker entry reproduces Totals
// exactly, including the per-tier steal split.
func TestPerWorkerSumsToTotals(t *testing.T) {
	s := NewSet(3)
	for i := range s.Workers {
		w := &s.Workers[i]
		base := int64(i + 1)
		w.Relaxations = 10 * base
		w.Improvements = 20 * base
		w.StaleSkips = 30 * base
		w.StealAttempts = 40 * base
		w.StealHits = 50 * base
		w.StealRounds = 60 * base
		w.ChunksDrained = 70 * base
		w.BucketAdvances = 80 * base
		w.QueueOpNS = 90 * base
		w.BarrierNS = 100 * base
		w.StealNS = 110 * base
		w.IdleNS = 120 * base
		for ti := range w.TierHits {
			w.TierHits[ti] = base * int64(ti+1)
		}
	}

	per := s.PerWorker()
	if len(per) != 3 {
		t.Fatalf("PerWorker returned %d entries, want 3", len(per))
	}
	var sum Worker
	for _, w := range per {
		sum.Relaxations += w.Relaxations
		sum.Improvements += w.Improvements
		sum.StaleSkips += w.StaleSkips
		sum.StealAttempts += w.StealAttempts
		sum.StealHits += w.StealHits
		sum.StealRounds += w.StealRounds
		sum.ChunksDrained += w.ChunksDrained
		sum.BucketAdvances += w.BucketAdvances
		sum.QueueOpNS += w.QueueOpNS
		sum.BarrierNS += w.BarrierNS
		sum.StealNS += w.StealNS
		sum.IdleNS += w.IdleNS
		for ti := range w.TierHits {
			sum.TierHits[ti] += w.TierHits[ti]
		}
	}
	if sum != s.Totals() {
		t.Fatalf("per-worker sum != totals:\nsum    %+v\ntotals %+v", sum, s.Totals())
	}

	// PerWorker hands back owned storage: mutating it must not leak
	// into the live set.
	per[0].Relaxations = -1
	if s.Workers[0].Relaxations == -1 {
		t.Fatal("PerWorker aliases live set storage")
	}
}

// TestTierHitsAggregated: Totals must not drop the tier breakdown.
func TestTierHitsAggregated(t *testing.T) {
	s := NewSet(2)
	s.Workers[0].TierHits = [MaxStealTiers]int64{1, 2, 3}
	s.Workers[1].TierHits = [MaxStealTiers]int64{10, 20, 30}
	tot := s.Totals()
	if tot.TierHits != ([MaxStealTiers]int64{11, 22, 33}) {
		t.Fatalf("tier totals = %v", tot.TierHits)
	}
	s.Reset()
	if s.Totals().TierHits != ([MaxStealTiers]int64{}) {
		t.Fatal("tier counters survive Reset")
	}
}
