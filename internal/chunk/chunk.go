// Package chunk implements the fixed-size vertex batches of the Wasp
// algorithm (paper §4.3 "Batching"). A chunk is a ring buffer of 64
// vertex ids with a next pointer (chunks form intrusive linked lists in
// the thread-local buckets), a priority field recording the bucket index
// it belongs to, and begin/end fields so a chunk can alternatively
// represent a sub-range of a single high-degree vertex's neighborhood
// (the neighborhood-decomposition optimization, §4.4).
//
// Chunks are single-owner: every operation here is unsynchronized.
// Ownership moves between workers wholesale, through the lock-free deque
// (package deque), never element by element.
package chunk

// Size is the number of vertex slots per chunk, chosen at compile time
// as in the paper (64 vertices).
const Size = 64

// Chunk is a ring buffer of vertices. The zero value is an empty chunk.
type Chunk struct {
	next *Chunk // intrusive list link used by buckets and free lists

	// Prio is the coarsened priority level (bucket index) of the
	// vertices stored in the chunk.
	Prio uint64

	// Begin and End delimit a neighborhood sub-range when the chunk
	// represents the partial neighborhood of a single vertex
	// (Begin < End). For ordinary vertex-set chunks both are zero.
	Begin, End uint32

	head, tail uint32 // ring indices; distance never exceeds Size
	buf        [Size]uint32
}

// Reset empties the chunk and clears its range fields.
func (c *Chunk) Reset() {
	c.next = nil
	c.Prio = 0
	c.Begin, c.End = 0, 0
	c.head, c.tail = 0, 0
}

// Len returns the number of buffered vertices.
func (c *Chunk) Len() int { return int(c.tail - c.head) }

// Empty reports whether the chunk holds no vertices.
func (c *Chunk) Empty() bool { return c.head == c.tail }

// Full reports whether the chunk is at capacity.
func (c *Chunk) Full() bool { return c.tail-c.head == Size }

// Push appends v. It panics if the chunk is full; callers check Full
// first (the hot path keeps this branch-predictable).
func (c *Chunk) Push(v uint32) {
	if c.Full() {
		panic("chunk: push to full chunk")
	}
	c.buf[c.tail&(Size-1)] = v
	c.tail++
}

// Pop removes and returns the most recently pushed vertex (LIFO order;
// depth-first processing keeps the working set hot in cache).
func (c *Chunk) Pop() (uint32, bool) {
	if c.Empty() {
		return 0, false
	}
	c.tail--
	return c.buf[c.tail&(Size-1)], true
}

// IsRange reports whether the chunk represents a partial neighborhood of
// a single vertex rather than a vertex set.
func (c *Chunk) IsRange() bool { return c.End > c.Begin }

// SetRange marks the chunk as a single-vertex neighborhood range chunk
// holding only v, covering out-edges [begin, end).
func (c *Chunk) SetRange(v uint32, begin, end uint32, prio uint64) {
	c.Reset()
	c.Prio = prio
	c.Begin, c.End = begin, end
	c.Push(v)
}

// Next returns the next chunk in the intrusive list.
func (c *Chunk) Next() *Chunk { return c.next }

// List is an intrusive LIFO list of chunks, the representation of a
// single thread-local bucket (paper §4.3 "Thread-local Buckets": a
// bucket is a linked list of chunks managed as a stack).
type List struct {
	head *Chunk
	n    int
}

// Empty reports whether the list has no chunks.
func (l *List) Empty() bool { return l.head == nil }

// Len returns the number of chunks in the list.
func (l *List) Len() int { return l.n }

// Push prepends c.
func (l *List) Push(c *Chunk) {
	c.next = l.head
	l.head = c
	l.n++
}

// Head returns the most recently pushed chunk without removing it, or
// nil. Buckets push vertices into the head chunk until it fills.
func (l *List) Head() *Chunk { return l.head }

// Pop removes and returns the most recently pushed chunk, or nil.
func (l *List) Pop() *Chunk {
	c := l.head
	if c == nil {
		return nil
	}
	l.head = c.next
	c.next = nil
	l.n--
	return c
}

// Pool is a per-worker free list recycling chunks to avoid allocation
// churn on the hot path. It is single-owner like everything else here.
type Pool struct {
	free List
	made int // chunks Get allocated
}

// MaxFree caps the chunks a pool retains (memory per worker): Put drops
// a chunk beyond it.
const MaxFree = 1024

// Get returns an empty chunk, reusing a freed one when available.
func (p *Pool) Get() *Chunk {
	if c := p.free.Pop(); c != nil {
		c.Reset()
		return c
	}
	p.made++
	return new(Chunk)
}

// Put recycles a chunk. The chunk must no longer be referenced anywhere.
func (p *Pool) Put(c *Chunk) {
	if p.free.Len() < MaxFree {
		p.free.Push(c)
	}
}

// Made reports the number of chunks Get has allocated.
func (p *Pool) Made() int { return p.made }

// Reclaim drains every chunk of l into the pool's free list, emptying
// the list. Solver sessions use it between runs to recover the chunks a
// cancelled solve left stranded in buckets, so repeated solves reuse
// one warm pool instead of reallocating.
func (p *Pool) Reclaim(l *List) {
	for {
		c := l.Pop()
		if c == nil {
			return
		}
		p.Put(c)
	}
}

// Free reports the number of chunks currently held by the free list.
func (p *Pool) Free() int { return p.free.Len() }
