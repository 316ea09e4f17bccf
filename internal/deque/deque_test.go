package deque

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"wasp/internal/chunk"
)

func mkChunks(n int) []*chunk.Chunk {
	out := make([]*chunk.Chunk, n)
	for i := range out {
		out[i] = &chunk.Chunk{Prio: uint64(i)}
	}
	return out
}

func TestOwnerLIFO(t *testing.T) {
	d := New(4)
	cs := mkChunks(10)
	for _, c := range cs {
		d.PushBottom(c)
	}
	if d.Len() != 10 {
		t.Fatalf("len = %d", d.Len())
	}
	for i := 9; i >= 0; i-- {
		c := d.PopBottom()
		if c != cs[i] {
			t.Fatalf("pop %d: got %v", i, c)
		}
	}
	if d.PopBottom() != nil {
		t.Fatal("pop from empty should be nil")
	}
	if !d.Empty() {
		t.Fatal("should be empty")
	}
}

func TestStealFIFO(t *testing.T) {
	d := New(4)
	cs := mkChunks(10)
	for _, c := range cs {
		d.PushBottom(c)
	}
	for i := 0; i < 10; i++ {
		c := d.Steal()
		if c != cs[i] {
			t.Fatalf("steal %d: got %v, want %v", i, c, cs[i])
		}
	}
	if d.Steal() != nil {
		t.Fatal("steal from empty should be nil")
	}
}

func TestGrowthPreservesContents(t *testing.T) {
	d := New(8)
	cs := mkChunks(1000) // forces several growths
	for _, c := range cs {
		d.PushBottom(c)
	}
	for i := 0; i < 500; i++ {
		if got := d.Steal(); got != cs[i] {
			t.Fatalf("steal %d wrong after growth", i)
		}
	}
	for i := 999; i >= 500; i-- {
		if got := d.PopBottom(); got != cs[i] {
			t.Fatalf("pop %d wrong after growth", i)
		}
	}
}

func TestInterleavedOwnerOps(t *testing.T) {
	d := New(8)
	a, b, c := &chunk.Chunk{}, &chunk.Chunk{}, &chunk.Chunk{}
	d.PushBottom(a)
	d.PushBottom(b)
	if d.PopBottom() != b {
		t.Fatal("pop b")
	}
	d.PushBottom(c)
	if d.Steal() != a {
		t.Fatal("steal a")
	}
	if d.PopBottom() != c {
		t.Fatal("pop c")
	}
	if !d.Empty() {
		t.Fatal("not empty")
	}
}

// TestStressOwnerVsThieves: every pushed chunk is received exactly once,
// across one owner (push/pop) and many concurrent thieves.
func TestStressOwnerVsThieves(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // force scheduling interleavings even on 1 core
	defer runtime.GOMAXPROCS(prev)

	const total = 50000
	const thieves = 4
	d := New(8)

	var got [total]atomic.Int32
	var stolen, popped atomic.Int64
	var wg sync.WaitGroup
	done := make(chan struct{})

	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := d.Steal()
				if c != nil {
					got[c.Prio].Add(1)
					stolen.Add(1)
					continue
				}
				select {
				case <-done:
					// Drain anything left after the owner finished.
					for {
						c := d.Steal()
						if c == nil {
							return
						}
						got[c.Prio].Add(1)
						stolen.Add(1)
					}
				default:
					runtime.Gosched()
				}
			}
		}()
	}

	// Owner: pushes all chunks, occasionally popping some back.
	for i := 0; i < total; i++ {
		d.PushBottom(&chunk.Chunk{Prio: uint64(i)})
		if i%3 == 0 {
			if c := d.PopBottom(); c != nil {
				got[c.Prio].Add(1)
				popped.Add(1)
			}
		}
	}
	for {
		c := d.PopBottom()
		if c == nil {
			break
		}
		got[c.Prio].Add(1)
		popped.Add(1)
	}
	close(done)
	wg.Wait()
	// Final drain by owner in case thieves exited first.
	for {
		c := d.Steal()
		if c == nil {
			break
		}
		got[c.Prio].Add(1)
	}

	for i := 0; i < total; i++ {
		if n := got[i].Load(); n != 1 {
			t.Fatalf("chunk %d received %d times (stolen=%d popped=%d)",
				i, n, stolen.Load(), popped.Load())
		}
	}
}

// TestStressSingleElementRaces hammers the owner-vs-thief race on the
// last element.
func TestStressSingleElementRaces(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	d := New(8)
	const rounds = 20000
	var received atomic.Int64
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if c := d.Steal(); c != nil {
				received.Add(1)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		d.PushBottom(&chunk.Chunk{})
		if c := d.PopBottom(); c != nil {
			received.Add(1)
		}
	}
	close(done)
	wg.Wait()
	for {
		c := d.Steal()
		if c == nil {
			break
		}
		received.Add(1)
	}
	if received.Load() != rounds {
		t.Fatalf("received %d of %d chunks", received.Load(), rounds)
	}
}

// TestPopBottomEmptyCheckUnderStealing: once the owner's PopBottom
// returns nil — by its empty check or by losing the last element to a
// thief — the deque stays empty until the owner pushes again, however
// many thieves keep trying, and every chunk is received exactly once.
func TestPopBottomEmptyCheckUnderStealing(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const rounds = 20000
	d := New(8)
	var got [3 * rounds]atomic.Int32
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if c := d.Steal(); c != nil {
					got[c.Prio].Add(1)
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	next := 0
	for i := 0; i < rounds; i++ {
		for k := 0; k <= i%3; k++ {
			d.PushBottom(&chunk.Chunk{Prio: uint64(next)})
			next++
		}
		for {
			c := d.PopBottom()
			if c == nil {
				break
			}
			got[c.Prio].Add(1)
		}
		if !d.Empty() || d.PopBottom() != nil {
			close(done)
			wg.Wait()
			t.Fatalf("round %d: deque refilled after PopBottom saw it empty", i)
		}
	}
	close(done)
	wg.Wait()
	for i := 0; i < next; i++ {
		if n := got[i].Load(); n != 1 {
			t.Fatalf("chunk %d received %d times", i, n)
		}
	}
}

func TestNewCapacityRounding(t *testing.T) {
	for _, c := range []int{0, 1, 8, 9, 100} {
		d := New(c)
		if d == nil || !d.Empty() {
			t.Fatalf("New(%d) broken", c)
		}
	}
}

func BenchmarkPushPopBottom(b *testing.B) {
	d := New(64)
	c := &chunk.Chunk{}
	for i := 0; i < b.N; i++ {
		d.PushBottom(c)
		d.PopBottom()
	}
}

func BenchmarkSteal(b *testing.B) {
	d := New(b.N + 1)
	c := &chunk.Chunk{}
	for i := 0; i < b.N; i++ {
		d.PushBottom(c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Steal()
	}
}
