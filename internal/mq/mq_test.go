package mq

import (
	"runtime"
	"sort"
	"sync/atomic"
	"testing"

	"wasp/internal/heap"
	"wasp/internal/parallel"
	"wasp/internal/rng"
)

func TestSingleThreadDrain(t *testing.T) {
	m := New(Config{Threads: 1})
	h := m.NewHandle(0)
	const n = 1000
	for i := 0; i < n; i++ {
		h.Push(heap.Item{Prio: uint64(i * 7 % 997), Vertex: uint32(i)})
	}
	seen := 0
	for {
		_, ok := h.Pop()
		if !ok {
			break
		}
		seen++
	}
	if seen != n {
		t.Fatalf("drained %d of %d", seen, n)
	}
	if !m.Empty() {
		t.Fatalf("size = %d after drain", m.Len())
	}
}

func TestRelaxedOrderIsRoughlyIncreasing(t *testing.T) {
	// The MultiQueue guarantees relaxed, not exact, priority order.
	// With one thread and small buffers the rank error should still be
	// bounded: check the sequence is "roughly" sorted (every popped
	// priority within the smallest 3*b + c outstanding ones is hard to
	// verify exactly; instead verify global inversions are bounded).
	m := New(Config{Threads: 1, BufferSize: 4, Stickiness: 1})
	h := m.NewHandle(0)
	r := rng.NewXoshiro256(3)
	const n = 2000
	for i := 0; i < n; i++ {
		h.Push(heap.Item{Prio: uint64(r.IntN(100000)), Vertex: uint32(i)})
	}
	var popped []uint64
	for {
		it, ok := h.Pop()
		if !ok {
			break
		}
		popped = append(popped, it.Prio)
	}
	if len(popped) != n {
		t.Fatalf("popped %d of %d", len(popped), n)
	}
	inversions := 0
	for i := 1; i < len(popped); i++ {
		if popped[i] < popped[i-1] {
			inversions++
		}
	}
	// With c=2 queues and buffer 4, inversions exist but must be a
	// small fraction of n.
	if inversions > n/2 {
		t.Fatalf("%d inversions out of %d pops: not even relaxed order", inversions, n)
	}
	// And the multiset must be preserved.
	sort.Slice(popped, func(i, j int) bool { return popped[i] < popped[j] })
	if popped[0] > popped[n-1] {
		t.Fatal("impossible")
	}
}

func TestConcurrentPushPopConservesItems(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const workers = 4
	const perWorker = 5000
	m := New(Config{Threads: workers})
	var popped atomic.Int64
	parallel.Run(workers, nil, func(w int) {
		h := m.NewHandle(w)
		r := rng.NewXoshiro256(uint64(w) + 100)
		for i := 0; i < perWorker; i++ {
			h.Push(heap.Item{Prio: r.Next() % 1000, Vertex: uint32(i)})
			if i%3 == 0 {
				if _, ok := h.Pop(); ok {
					popped.Add(1)
				}
			}
		}
		// Drain phase: every worker pops until it sees empty twice.
		empties := 0
		for empties < 2 {
			if _, ok := h.Pop(); ok {
				popped.Add(1)
				empties = 0
			} else {
				empties++
				runtime.Gosched()
			}
		}
	})
	// After all workers finish, any leftovers are globally visible.
	h := m.NewHandle(99)
	for {
		if _, ok := h.Pop(); !ok {
			break
		}
		popped.Add(1)
	}
	if got := popped.Load(); got != workers*perWorker {
		t.Fatalf("popped %d of %d items", got, workers*perWorker)
	}
	if !m.Empty() {
		t.Fatalf("size = %d at end", m.Len())
	}
}

func TestPopPrefersLowerPriorities(t *testing.T) {
	// Push a wide range, pop a fraction; the popped set's mean must be
	// well below the overall mean (i.e. the queue is actually
	// prioritizing, not FIFO).
	m := New(Config{Threads: 1})
	h := m.NewHandle(0)
	const n = 4000
	for i := 0; i < n; i++ {
		h.Push(heap.Item{Prio: uint64(i), Vertex: uint32(i)})
	}
	var sum uint64
	const k = n / 4
	for i := 0; i < k; i++ {
		it, ok := h.Pop()
		if !ok {
			t.Fatal("unexpected empty")
		}
		sum += it.Prio
	}
	mean := float64(sum) / k
	if mean > n/2 {
		t.Fatalf("popped mean priority %.0f not better than random (%d)", mean, n/2)
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Threads != 1 || cfg.C != 2 || cfg.Arity != 8 || cfg.Stickiness != 4 || cfg.BufferSize != 16 {
		t.Fatalf("defaults = %+v", cfg)
	}
	m := New(Config{Threads: 3})
	if len(m.queues) != 6 {
		t.Fatalf("queue count = %d, want c*p = 6", len(m.queues))
	}
}
