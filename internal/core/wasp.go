package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"wasp/internal/chunk"
	"wasp/internal/deque"
	"wasp/internal/dist"
	"wasp/internal/fault"
	"wasp/internal/graph"
	"wasp/internal/metrics"
	"wasp/internal/parallel"
	"wasp/internal/rng"
	"wasp/internal/trace"
)

// Run computes single-source shortest paths from source using the Wasp
// algorithm (paper Algorithm 1). It is the one-shot entry point: a
// fresh Solver is built and used once. Callers solving many sources
// over one graph should build a Solver (or a wasp.Session) and reuse
// it — see solver.go, which also holds the warm start (PrepareWarm).
func Run(g *graph.Graph, source graph.Vertex, opt Options) *Result {
	return NewSolver(g, opt).Solve(source, opt.Cancel)
}

// worker is one Wasp thread's state: its shared current bucket (deque +
// published priority level), its private bucket vector, and its steal
// machinery. Shared fields live at the top, separated from owner-only
// state by padding so thieves' reads do not false-share with the
// owner's hot fields.
type worker struct {
	// Shared with thieves.
	curr     atomic.Uint64 // level of the latest exposed or stolen work; infPrio when idle (see expose)
	stealing atomic.Bool   // up from before a round's first steal CAS to its end (termination fence)
	_        [48]byte
	dq       *deque.Deque // the current bucket's stealable chunks

	// Shared with observers (checkpointers, stall watchdogs): the
	// relaxation counter, re-published from the private metrics once
	// per chunk of entries so progress is readable without touching
	// the hot per-relaxation path.
	relaxPub atomic.Int64
	_pad2    [56]byte

	// Owner-only.
	id       int
	g        *graph.Graph
	d        *dist.Array
	leaves   *graph.Bitmap
	opt      Options
	delta    uint32
	workers  []*worker
	ops      *atomic.Int64   // global successful-steal counter (see term.go)
	idle     *atomic.Int32   // workers idling at priority ∞ (see pour)
	cancel   *parallel.Token // cooperative cancellation; nil = never cancelled
	tiers    [][]int         // steal victim ids by NUMA tier
	stolen   []*chunk.Chunk  // one steal round's chunks; room for one per worker
	r        *rng.Xoshiro256
	buf      *chunk.Chunk // current bucket's buffer chunk (push and pop)
	buckets  []chunk.List // thread-local buckets by priority level
	minLocal int          // scan hint: no non-empty bucket below this index
	pool     chunk.Pool
	m        *metrics.Worker
	currLoc  uint64 // current priority level; curr trails it until work at it is exposed
	// countdown counts entries until the next progress publish and
	// in-bucket cancellation poll; it carries across bucket advances.
	countdown int
	// Warm-start repair range [warmLo, warmHi): scanned at the top of
	// run for seeded distances violating the triangle inequality.
	// Empty (0,0) on cold solves.
	warmLo, warmHi int
}

func newWorker(id int, g *graph.Graph, d *dist.Array, leaves *graph.Bitmap,
	opt Options, all []*worker, ops *atomic.Int64, idle *atomic.Int32, m *metrics.Worker) *worker {
	w := &worker{
		id:      id,
		g:       g,
		d:       d,
		leaves:  leaves,
		opt:     opt,
		delta:   opt.Delta,
		workers: all,
		ops:     ops,
		idle:    idle,
		cancel:  opt.Cancel,
		tiers:   opt.Topology.Tiers(id, opt.Workers),
		stolen:  make([]*chunk.Chunk, 0, len(all)),
		r:       rng.NewXoshiro256(uint64(id)*0x9e3779b97f4a7c15 + 0xdead),
		dq:      deque.New(16),
		m:       m,
	}
	w.buf = w.pool.Get()
	w.curr.Store(0)
	w.currLoc = 0
	w.countdown = chunk.Size
	return w
}

// reset restores the worker to its just-constructed state for the next
// solve of a reused Solver. After a completed run the buffer, deque and
// buckets are already empty; after a cancelled run they are not, so
// everything is drained back into the chunk pool. The RNG is reseeded
// with the constructor's stream so a reused worker makes the same
// victim choices as a fresh one.
func (w *worker) reset() {
	for {
		c := w.dq.PopBottom()
		if c == nil {
			break
		}
		w.pool.Put(c)
	}
	for i := range w.buckets {
		w.pool.Reclaim(&w.buckets[i])
	}
	w.buf.Reset()
	w.minLocal = 0
	w.r.Reseed(uint64(w.id)*0x9e3779b97f4a7c15 + 0xdead)
	w.cancel = nil
	w.stealing.Store(false)
	w.countdown = chunk.Size
	w.relaxPub.Store(0)
	w.warmLo, w.warmHi = 0, 0
	w.setCurr(0)
}

// publishProgress re-publishes the private relaxation counter for
// observers (Solver.Progress, checkpoints, stall watchdogs). Called once
// per chunk.Size entries drained, once per stolen chunk and at exit —
// never per relaxation, and not per bucket advance, so an advance that
// exposes nothing stores to no shared line.
func (w *worker) publishProgress() {
	w.relaxPub.Store(w.m.Relaxations)
}

// setCurr moves to and publishes a new priority level at once: a steal
// hit, idle entry (∞) and reset. A bucket advance publishes lazily
// (pour, expose).
func (w *worker) setCurr(prio uint64) {
	w.currLoc = prio
	w.curr.Store(prio)
}

// run is the top-level loop of Algorithm 1, lines 16–32. Cancellation
// is polled at bucket boundaries here and once per chunk of entries
// inside drainCurrent/processStolen — never per relaxation.
func (w *worker) run() {
	// Guaranteed injection site: hit once per worker per solve,
	// independent of graph size or steal activity (see fault.SolveStart).
	fault.Inject(fault.SolveStart, w.id)
	defer w.publishProgress()
	defer w.opt.Trace.Flush(w.id)
	if w.warmHi > w.warmLo {
		w.seedFrontier()
	}
	for {
		if w.cancel.Cancelled() || !w.drainCurrent() {
			return
		}

		// Current bucket empty: steal higher-priority work before
		// touching lower-priority local buckets (line 22).
		next := w.minNonEmptyLocal()
		if stolen := w.timedStealRound(next); stolen != nil {
			w.processStolen(stolen)
			continue
		}

		// No steal: advance to the next local bucket (lines 29–32).
		if next != infPrio {
			w.m.BucketAdvances++
			w.opt.Trace.Advance(w.id, next)
			w.pour(next)
			continue
		}

		// Nothing anywhere: idle at priority ∞, stealing at any level
		// until work appears or every worker is idle (§4.3 termination).
		w.setCurr(infPrio)
		w.opt.Trace.Add(w.id, trace.IdleEnter, 0, 0)
		if w.idleUntilWorkOrTermination() {
			w.opt.Trace.Add(w.id, trace.Terminate, 0, 0)
			return
		}
	}
}

// drainCurrent processes the current bucket until it is empty
// (Algorithm 1 lines 18–21), reporting false if it stopped early for
// cancellation. Thieves may drain it concurrently. Progress is
// published and cancellation polled once per chunk.Size entries; the
// worker's countdown carries across buckets, so a run of one-entry
// buckets pays for neither at every advance.
func (w *worker) drainCurrent() bool {
	for {
		u, prio, begin, end, ok := w.popCurrent()
		if !ok {
			return true
		}
		w.processEntry(u, prio, begin, end)
		if w.countdown--; w.countdown <= 0 {
			w.countdown = chunk.Size
			w.publishProgress()
			if w.cancel.Cancelled() {
				return false
			}
		}
	}
}

// seedFrontier rebuilds this worker's share of the initial frontier
// for a warm-started solve (Solver.PrepareWarm): every vertex in
// [warmLo, warmHi) whose seeded distance can still improve an
// out-neighbor — a violated triangle inequality d(u)+w(u,v) < d(v) —
// is queued at its seeded priority. Vertices with no violation are
// already settled relative to their neighborhood and cost nothing
// beyond the scan; this is what makes resuming from a late snapshot
// cheaper than a cold solve. The scan runs before the main loop, so
// the usual steal/termination machinery sees a normal (if unusually
// pre-populated) solve.
func (w *worker) seedFrontier() {
	countdown := 1 << 12
	for u := w.warmLo; u < w.warmHi; u++ {
		if countdown--; countdown <= 0 {
			countdown = 1 << 12
			if w.cancel.Cancelled() {
				return
			}
		}
		du := w.d.Get(uint32(u))
		if du == graph.Infinity {
			continue
		}
		dst, wts := w.g.OutNeighbors(graph.Vertex(u))
		for i, v := range dst {
			if dist.SatAdd(du, wts[i]) < w.d.Get(v) {
				w.pushLocal(uint32(u), prioOf(du, w.delta))
				break
			}
		}
	}
}

// processEntry applies the staleness check and relaxes u's neighborhood
// range. A zero (begin,end) means the full neighborhood.
func (w *worker) processEntry(u uint32, prio uint64, begin, end uint32) {
	// Staleness check (line 20): if a better path to u was found
	// concurrently, a fresher entry for u exists in a lower bucket.
	if uint64(w.d.Get(u)) < prio*uint64(w.delta) {
		w.m.StaleSkips++
		return
	}
	if end == 0 { // full neighborhood: maybe decompose or pull (§4.4)
		deg := w.g.OutDegree(u)
		if !w.opt.NoDecomposition && deg > w.opt.Theta {
			w.decompose(u, prio, deg)
			return
		}
		if deg <= 8 && deg > 0 && !w.opt.NoBidirectional && !w.g.Directed() {
			w.relaxBidirectional(u)
			return
		}
		begin, end = 0, uint32(deg)
	}
	w.processNeighborhood(u, begin, end)
}

// processNeighborhood relaxes the out-edges of u in [begin, end)
// (Algorithm 1 lines 12–15).
func (w *worker) processNeighborhood(u uint32, begin, end uint32) {
	dst, wts := w.g.OutNeighborsRange(graph.Vertex(u), int(begin), int(end))
	for i, v := range dst {
		w.m.Relaxations++
		nd, improved := w.d.Relax(graph.Vertex(u), v, wts[i])
		if !improved {
			continue
		}
		w.m.Improvements++
		if w.leaves != nil && w.leaves.Get(int(v)) {
			continue // leaf pruning: v can never improve anyone (§4.4)
		}
		w.pushVertex(uint32(v), prioOf(nd, w.delta))
	}
}

// pushVertex routes an updated vertex to the current bucket or a
// thread-local bucket (Algorithm 1 lines 9–11).
func (w *worker) pushVertex(v uint32, prio uint64) {
	if prio == w.currLoc {
		w.pushCurrent(v)
		return
	}
	w.pushLocal(v, prio)
}

// pushCurrent adds v to the current bucket via the buffer chunk; full
// buffers are exposed on the deque, where thieves can take them.
func (w *worker) pushCurrent(v uint32) {
	if w.buf.Full() {
		w.expose(w.buf)
		w.buf = w.pool.Get()
		w.buf.Prio = w.currLoc
	}
	w.buf.Push(v)
}

// expose puts c on the current bucket's deque, where thieves can take
// it, first publishing the worker's level if an advance left it
// unpublished. So curr is the level of the latest exposed or stolen
// work, and every chunk a thief can see was pushed after its level was
// published; a thief reads curr only behind a non-empty deque.
func (w *worker) expose(c *chunk.Chunk) {
	if w.curr.Load() != w.currLoc {
		w.curr.Store(w.currLoc)
	}
	w.dq.PushBottom(c)
}

// popCurrent removes the next entry from the current bucket: buffer
// first, then chunks popped from the deque's bottom.
func (w *worker) popCurrent() (u uint32, prio uint64, begin, end uint32, ok bool) {
	for {
		if v, has := w.buf.Pop(); has {
			return v, w.buf.Prio, 0, 0, true
		}
		c := w.dq.PopBottom()
		if c == nil {
			return 0, 0, 0, 0, false
		}
		if c.IsRange() {
			v, _ := c.Pop()
			prio, begin, end = c.Prio, c.Begin, c.End
			w.pool.Put(c)
			return v, prio, begin, end, true
		}
		w.m.ChunksDrained++
		w.pool.Put(w.buf)
		w.buf = c // popped chunks become the new buffer (§4.3)
	}
}

// pushLocal adds v to thread-local bucket prio.
func (w *worker) pushLocal(v uint32, prio uint64) {
	w.ensureBucket(prio)
	lst := &w.buckets[prio]
	head := lst.Head()
	if head == nil || head.Full() || head.IsRange() {
		head = w.pool.Get()
		head.Prio = prio
		lst.Push(head)
	}
	head.Push(v)
	if int(prio) < w.minLocal {
		w.minLocal = int(prio)
	}
}

// pushLocalChunk adds a prepared chunk (e.g. a neighborhood range) to
// bucket prio.
func (w *worker) pushLocalChunk(c *chunk.Chunk) {
	prio := c.Prio
	w.ensureBucket(prio)
	w.buckets[prio].Push(c)
	if int(prio) < w.minLocal {
		w.minLocal = int(prio)
	}
}

// ensureBucket grows the bucket vector to cover prio, rounding the new
// size to a power of two as the paper does to amortize resizes.
func (w *worker) ensureBucket(prio uint64) {
	if prio < uint64(len(w.buckets)) {
		return
	}
	size := uint64(16)
	for size <= prio {
		size *= 2
	}
	next := make([]chunk.List, size)
	copy(next, w.buckets)
	w.buckets = next
}

// minNonEmptyLocal scans the bucket vector from the hint for the lowest
// non-empty bucket (Algorithm 2 line 2), returning infPrio if none.
func (w *worker) minNonEmptyLocal() uint64 {
	for i := w.minLocal; i < len(w.buckets); i++ {
		if !w.buckets[i].Empty() {
			w.minLocal = i
			return uint64(i)
		}
	}
	w.minLocal = len(w.buckets)
	return infPrio
}

// pour advances to bucket prio and moves its chunks into the (empty)
// current bucket (Algorithm 1 line 32). The level stays private
// until a chunk at it is exposed. While no worker idles, the head chunk
// becomes the buffer directly and only the rest reach the deque — the
// state the owner reaches whenever its PopBottom beats every thief,
// without the PushBottom and PopBottom CAS that made a one-chunk bucket
// cost more to advance to than to drain at small Δ. So an advance onto
// a one-chunk bucket stores to no shared line. While any worker idles
// (solve start and tail) every chunk is exposed so idle workers are
// fed; the owner reads the idle count again at its next advance. Range
// chunks are always exposed. A busy worker's curr keeps the finite
// level it last published, so the termination scan never counts it
// idle.
func (w *worker) pour(prio uint64) {
	w.currLoc = prio
	lst := &w.buckets[prio]
	if c := lst.Head(); w.idle.Load() == 0 && !c.IsRange() {
		lst.Pop()
		w.m.ChunksDrained++
		w.pool.Put(w.buf)
		w.buf = c
	}
	for {
		c := lst.Pop()
		if c == nil {
			return
		}
		w.expose(c)
	}
}

// processStolen drains stolen chunks immediately (lines 23–28); once
// stolen, chunks are never re-exposed for stealing. stealRound has
// already published the best stolen priority as curr.
func (w *worker) processStolen(stolen []*chunk.Chunk) {
	w.buf.Prio = w.currLoc
	for i, c := range stolen {
		if w.cancel.Cancelled() {
			// Chunk-boundary cancellation point. Recycle the chunks we
			// will not process so a reused solver does not leak them.
			for _, rest := range stolen[i:] {
				w.pool.Put(rest)
			}
			return
		}
		if c.IsRange() {
			v, _ := c.Pop()
			w.processEntry(v, c.Prio, c.Begin, c.End)
			w.pool.Put(c)
			continue
		}
		for {
			v, ok := c.Pop()
			if !ok {
				break
			}
			w.processEntry(v, c.Prio, 0, 0)
		}
		w.m.ChunksDrained++
		w.publishProgress()
		w.pool.Put(c)
	}
}

// idleUntilWorkOrTermination spins stealing at any priority level; it
// returns true when every worker is simultaneously idle with no steal
// in flight — the stable global state that makes the scan race-free
// (see term.go for the argument).
func (w *worker) idleUntilWorkOrTermination() bool {
	var spinStart time.Time
	if w.opt.Timing {
		spinStart = time.Now()
	}
	// The idle count tells busy owners to expose whole buckets (pour);
	// it goes down on every exit from the loop.
	w.idle.Add(1)
	idleDone := func() {
		w.idle.Add(-1)
		if w.opt.Timing {
			w.m.IdleNS += int64(time.Since(spinStart))
		}
	}
	for {
		if w.cancel.Cancelled() {
			idleDone()
			return true // cancelled: leave the run loop
		}
		if stolen := w.stealRound(infPrio); stolen != nil {
			idleDone() // processing resumes: stop the idle clock first
			w.processStolen(stolen)
			return false
		}
		if w.allIdle() {
			idleDone()
			return true
		}
		runtime.Gosched()
	}
}

// timedStealRound wraps stealRound with the optional breakdown timer.
func (w *worker) timedStealRound(next uint64) []*chunk.Chunk {
	if !w.opt.Timing {
		return w.stealRound(next)
	}
	t0 := time.Now()
	stolen := w.stealRound(next)
	w.m.StealNS += int64(time.Since(t0))
	return stolen
}
