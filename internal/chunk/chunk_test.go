package chunk

import (
	"testing"
	"testing/quick"
)

func TestPushPopLIFO(t *testing.T) {
	var c Chunk
	for i := uint32(0); i < Size; i++ {
		c.Push(i)
	}
	if !c.Full() {
		t.Fatal("chunk should be full")
	}
	for i := int(Size) - 1; i >= 0; i-- {
		v, ok := c.Pop()
		if !ok || v != uint32(i) {
			t.Fatalf("pop = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if !c.Empty() {
		t.Fatal("chunk should be empty")
	}
	if _, ok := c.Pop(); ok {
		t.Fatal("pop from empty should fail")
	}
}

func TestPushFullPanics(t *testing.T) {
	var c Chunk
	for i := uint32(0); i < Size; i++ {
		c.Push(i)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Push(99)
}

func TestLenTracksOperations(t *testing.T) {
	var c Chunk
	if c.Len() != 0 {
		t.Fatalf("len = %d", c.Len())
	}
	c.Push(1)
	c.Push(2)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	c.Pop()
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

// TestInterleavedProperty: any interleaving of pushes and pops behaves
// like a stack of capacity Size.
func TestInterleavedProperty(t *testing.T) {
	f := func(ops []bool, vals []uint32) bool {
		var c Chunk
		var model []uint32
		vi := 0
		for _, push := range ops {
			if push && len(model) < Size {
				v := uint32(0)
				if vi < len(vals) {
					v = vals[vi]
					vi++
				}
				c.Push(v)
				model = append(model, v)
			} else if !push {
				v, ok := c.Pop()
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				want := model[len(model)-1]
				model = model[:len(model)-1]
				if !ok || v != want {
					return false
				}
			}
			if c.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeChunk(t *testing.T) {
	var c Chunk
	c.SetRange(42, 100, 200, 7)
	if !c.IsRange() {
		t.Fatal("should be a range chunk")
	}
	if c.Begin != 100 || c.End != 200 || c.Prio != 7 {
		t.Fatalf("fields = %+v", c)
	}
	v, ok := c.Pop()
	if !ok || v != 42 {
		t.Fatalf("pop = (%d,%v)", v, ok)
	}
	c.Reset()
	if c.IsRange() || c.Prio != 0 || !c.Empty() {
		t.Fatal("reset incomplete")
	}
}

func TestList(t *testing.T) {
	var l List
	if !l.Empty() || l.Pop() != nil {
		t.Fatal("zero list should be empty")
	}
	a, b, c := &Chunk{}, &Chunk{}, &Chunk{}
	l.Push(a)
	l.Push(b)
	l.Push(c)
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	// LIFO.
	if l.Pop() != c || l.Pop() != b || l.Pop() != a {
		t.Fatal("list order wrong")
	}
	if !l.Empty() {
		t.Fatal("list should be empty")
	}
}

func TestPoolRecycles(t *testing.T) {
	var p Pool
	c := p.Get()
	c.Push(5)
	c.Prio = 9
	p.Put(c)
	c2 := p.Get()
	if c2 != c {
		t.Fatal("pool did not recycle")
	}
	if !c2.Empty() || c2.Prio != 0 {
		t.Fatal("recycled chunk not reset")
	}
	// Getting again allocates fresh.
	c3 := p.Get()
	if c3 == c2 {
		t.Fatal("same chunk handed out twice")
	}
}

func TestPoolBoundsRetention(t *testing.T) {
	var p Pool
	for i := 0; i < 2000; i++ {
		p.Put(new(Chunk))
	}
	if p.free.Len() > 1024 {
		t.Fatalf("pool retained %d chunks", p.free.Len())
	}
}

func BenchmarkPushPop(b *testing.B) {
	var c Chunk
	for i := 0; i < b.N; i++ {
		c.Push(uint32(i))
		c.Pop()
	}
}

// TestPoolReclaim: Reclaim moves every chunk of a list into the free
// list, emptying the list, and Get then reuses those chunks.
func TestPoolReclaim(t *testing.T) {
	var p Pool
	var l List
	chunks := make(map[*Chunk]bool)
	for i := 0; i < 5; i++ {
		c := p.Get()
		c.Push(uint32(i))
		l.Push(c)
		chunks[c] = true
	}
	p.Reclaim(&l)
	if !l.Empty() || l.Len() != 0 {
		t.Fatalf("list not emptied: len %d", l.Len())
	}
	if p.Free() != 5 {
		t.Fatalf("free list holds %d chunks, want 5", p.Free())
	}
	for i := 0; i < 5; i++ {
		c := p.Get()
		if !chunks[c] {
			t.Fatal("Get allocated instead of reusing a reclaimed chunk")
		}
		if !c.Empty() || c.IsRange() {
			t.Fatal("reclaimed chunk not reset")
		}
	}
	// Reclaiming an empty list is a no-op.
	p.Reclaim(&l)
	if p.Free() != 0 {
		t.Fatalf("free list holds %d chunks, want 0", p.Free())
	}
}

// TestPoolMadeCountsAllocations: Made counts only the chunks Get had to
// allocate, not the ones it reused.
func TestPoolMadeCountsAllocations(t *testing.T) {
	var p Pool
	a, b := p.Get(), p.Get()
	if p.Made() != 2 {
		t.Fatalf("Made() = %d after two allocating Gets, want 2", p.Made())
	}
	p.Put(a)
	p.Put(b)
	p.Get()
	if p.Made() != 2 || p.Free() != 1 {
		t.Fatalf("Made() = %d, Free() = %d after a reusing Get, want 2 and 1", p.Made(), p.Free())
	}
}
