package obim

import (
	"runtime"
	"sync/atomic"
	"testing"

	"wasp/internal/parallel"
	"wasp/internal/rng"
)

func TestSingleThreadPriorityOrderWithinLocal(t *testing.T) {
	s := New()
	h := s.NewHandle()
	h.Push(10, 5)
	h.Push(11, 2)
	h.Push(12, 9)
	v, p, ok := h.Pop()
	if !ok || p != 2 || v != 11 {
		t.Fatalf("pop = (%d,%d,%v), want best local level 2", v, p, ok)
	}
	v, p, ok = h.Pop()
	if !ok || p != 5 || v != 10 {
		t.Fatalf("pop = (%d,%d,%v)", v, p, ok)
	}
	v, p, ok = h.Pop()
	if !ok || p != 9 || v != 12 {
		t.Fatalf("pop = (%d,%d,%v)", v, p, ok)
	}
	if _, _, ok := h.Pop(); ok {
		t.Fatal("expected empty")
	}
}

func TestFullChunksPublishGlobally(t *testing.T) {
	s := New()
	a := s.NewHandle()
	// Fill more than one chunk at level 3 so at least one publishes.
	for i := 0; i < 200; i++ {
		a.Push(uint32(i), 3)
	}
	if s.GlobalLen() == 0 {
		t.Fatal("no chunks published after 200 pushes")
	}
	// Another handle can consume the global work.
	b := s.NewHandle()
	if _, p, ok := b.Pop(); !ok || p != 3 {
		t.Fatalf("cross-thread pop failed: prio %d ok %v", p, ok)
	}
}

func TestGlobalBestAdvertisement(t *testing.T) {
	s := New()
	a := s.NewHandle()
	for i := 0; i < 100; i++ {
		a.Push(uint32(i), 7) // publishes a full chunk at level 7
	}
	b := s.NewHandle()
	b.Push(500, 9) // local low-priority work
	_, p, ok := b.Pop()
	if !ok {
		t.Fatal("pop failed")
	}
	if p != 7 {
		t.Fatalf("popped level %d, want advertised global level 7", p)
	}
}

func TestDrainConservesVertices(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const workers = 4
	const each = 20000
	s := New()
	var popped atomic.Int64
	parallel.Run(workers, nil, func(w int) {
		h := s.NewHandle()
		r := rng.NewXoshiro256(uint64(w))
		for i := 0; i < each; i++ {
			h.Push(uint32(w*each+i), r.Next()%32)
			if i%2 == 0 {
				if _, _, ok := h.Pop(); ok {
					popped.Add(1)
				}
			}
		}
		// Drain: local work always visible to self; global work shared.
		misses := 0
		for misses < 3 {
			if _, _, ok := h.Pop(); ok {
				popped.Add(1)
				misses = 0
			} else {
				misses++
				runtime.Gosched()
			}
		}
	})
	// Single-threaded sweep of leftovers in the global bags.
	h := s.NewHandle()
	for {
		if _, _, ok := h.Pop(); !ok {
			break
		}
		popped.Add(1)
	}
	if got := popped.Load(); got != workers*each {
		t.Fatalf("popped %d of %d", got, workers*each)
	}
}

func TestPushToCurrentChunkFastPath(t *testing.T) {
	s := New()
	h := s.NewHandle()
	h.Push(1, 5)
	v, p, _ := h.Pop() // drains level 5's chunk into curr
	if v != 1 || p != 5 {
		t.Fatal("setup failed")
	}
	// Pushing at the current priority reuses the in-hand chunk.
	h.Push(2, 5)
	v, p, ok := h.Pop()
	if !ok || v != 2 || p != 5 {
		t.Fatalf("fast-path pop = (%d,%d,%v)", v, p, ok)
	}
}

// TestDrainedLevelsLeave drains 1,000 levels, each with published and
// local chunks: the scheduler must keep none of them afterwards, so a
// failed Pop finds nothing to scan and allocates nothing.
func TestDrainedLevelsLeave(t *testing.T) {
	const levels, each = 1000, 300
	s := New()
	h := s.NewHandle()
	for p := uint64(0); p < levels; p++ {
		for i := 0; i < each; i++ {
			h.Push(uint32(i), p)
		}
	}
	popped := 0
	for {
		if _, _, ok := h.Pop(); !ok {
			break
		}
		popped++
	}
	if popped != levels*each {
		t.Fatalf("popped %d of %d", popped, levels*each)
	}
	if allocs := testing.AllocsPerRun(100, func() { h.Pop() }); allocs != 0 {
		t.Fatalf("a failed Pop allocates %v times", allocs)
	}
	if len(s.levels) != 0 || s.GlobalLen() != 0 || s.best.Load() != ^uint64(0) {
		t.Fatalf("after the drain the scheduler keeps %d levels, %d chunks, best %d",
			len(s.levels), s.GlobalLen(), s.best.Load())
	}
}
