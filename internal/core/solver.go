package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"

	"wasp/internal/chunk"
	"wasp/internal/dist"
	"wasp/internal/fault"
	"wasp/internal/graph"
	"wasp/internal/metrics"
	"wasp/internal/parallel"
)

// Solver is a reusable Wasp instance bound to one graph: the distance
// array, per-worker Chase-Lev deques, chunk pools, thread-local bucket
// vectors, metrics storage and the shortest-path-tree leaf bitmap are
// all allocated once by NewSolver and recycled by every Solve. This is
// the engine behind the public session API (wasp.NewSession): the
// SSSP-as-inner-loop applications of the paper's introduction
// (betweenness/closeness centrality) run one solve per pivot over a
// fixed graph, and rebuilding this state per pivot is pure GC churn.
//
// A Solver supports one solve at a time; Solve must not be called
// concurrently with itself. Between calls the structures are quiescent
// and Reset reclaims whatever a cancelled run left behind.
type Solver struct {
	g      *graph.Graph
	opt    Options // defaults applied
	d      *dist.Array
	ops    atomic.Int64
	_      [56]byte
	idle   atomic.Int32 // workers idling at priority ∞, read at every advance (pour)
	_      [60]byte     // idle's own line: steals bumping ops must not invalidate it
	ws     []*worker
	source graph.Vertex // source of the prepared/running solve
}

// NewSolver preallocates a Solver for g. The options are captured with
// defaults applied; opt.Cancel is ignored (a cancellation token is per
// solve, passed to Solve). When opt.Metrics is nil the solver owns a
// private set; either way counters accumulate across solves unless the
// caller resets the set (metrics.Set.Reset) between runs.
func NewSolver(g *graph.Graph, opt Options) *Solver {
	opt = opt.withDefaults()
	opt.Cancel = nil
	p := opt.Workers
	m := opt.Metrics
	if m == nil || len(m.Workers) < p {
		m = metrics.NewSet(p)
	}
	var leaves *graph.Bitmap // shared by every worker, computed once per solver
	if !opt.NoLeafPruning {
		leaves = graph.LeafBitmap(g)
	}
	s := &Solver{
		g:   g,
		opt: opt,
		d:   dist.New(g.NumVertices(), 0),
	}
	s.ws = make([]*worker, p)
	for i := 0; i < p; i++ {
		s.ws[i] = newWorker(i, g, s.d, leaves, opt, s.ws, &s.ops, &s.idle, &m.Workers[i])
	}
	return s
}

// Solve computes SSSP from source, reusing every preallocated
// structure. cancel, when non-nil, is polled at chunk and bucket
// boundaries exactly as in Run and also arms panic containment; pass a
// fresh token per solve (a tripped token would cancel the run
// immediately). The returned Result's Dist aliases the solver's
// distance array: it is valid until the next Solve call.
func (s *Solver) Solve(source graph.Vertex, cancel *parallel.Token) *Result {
	s.Prepare(source)
	return s.Launch(cancel)
}

// Prepare resets the solver for a cold solve from source and seeds the
// initial frontier (the source in worker 0's current bucket at level
// 0). Split from Launch so a caller can start observers — Checkpoint,
// Progress — after the distance array stopped being plainly rewritten
// by Reset and before workers start lowering it atomically.
func (s *Solver) Prepare(source graph.Vertex) {
	s.Reset(source)
	s.ws[0].pushCurrent(uint32(source))
}

// PrepareWarm resets the solver and loads seed as the starting distance
// array for a solve from source (seed[source] is forced to 0). The
// initial frontier is not known yet — each worker rebuilds its share of
// it during Launch with a repair scan over its vertex range, queueing
// every vertex with an out-edge that violates the triangle inequality
// under the seeded distances.
//
// Every finite seed entry must be a valid upper bound on the true
// distance from source (e.g. a Checkpoint of an earlier, interrupted
// solve from the same source on the same graph). Label correction only
// ever lowers distances, so such a seed plus that frontier reaches the
// fixed point a cold solve does, skipping the work the seed already
// paid for; a seed below the true distances yields garbage.
func (s *Solver) PrepareWarm(source graph.Vertex, seed []uint32) {
	s.Reset(source)
	s.d.Load(seed, source)
	n := s.g.NumVertices()
	p := len(s.ws)
	for i, w := range s.ws {
		w.warmLo, w.warmHi = i*n/p, (i+1)*n/p
	}
}

// Launch runs the prepared solve to termination (or cancellation),
// reusing every preallocated structure. Checkpoint and Progress are
// safe to call concurrently from the moment Prepare/PrepareWarm
// returned until the next Prepare. The returned Result's Dist aliases
// the solver's distance array: it is valid until the next solve.
func (s *Solver) Launch(cancel *parallel.Token) *Result {
	for _, w := range s.ws {
		w.cancel = cancel
	}
	if s.opt.debugWorkers != nil {
		s.opt.debugWorkers(s.ws)
	}
	// With a non-nil cancel token, parallel.Run contains worker panics:
	// the token is tripped (so the siblings polling it drain) and the
	// panic is recorded on the token, where the caller that owns it
	// retrieves it via Err. Without a token the panic propagates as it
	// always did.
	_ = parallel.Run(len(s.ws), cancel, func(i int) { s.ws[i].run() })
	return &Result{Dist: s.d.Snapshot(), Complete: !cancel.Cancelled()}
}

// Snapshot is a point-in-time copy of a solve's upper-bound state: the
// racy-but-valid distance copy plus the relaxation/settled counters at
// capture. Dist is caller-owned (it never aliases solver storage).
type Snapshot struct {
	// Source the captured solve runs from.
	Source graph.Vertex
	// Dist is the copied distance array: every finite entry is the
	// length of a real path from Source, hence a valid upper bound on
	// the true distance — the property that makes any mid-solve
	// snapshot a correct restart state (see PrepareWarm).
	Dist []uint32
	// Relaxations is the approximate number of edge relaxations
	// attempted so far (workers publish at chunk granularity).
	Relaxations int64
	// Settled is the number of finite entries in Dist.
	Settled int
}

// checkpointBlock is the copy granularity of Checkpoint: the fault
// hook between blocks is what lets tests stretch the copy window
// across concurrent relaxations.
const checkpointBlock = 1 << 16

// Checkpoint captures a Snapshot of the current solve while workers
// keep running — no locks, no barrier, no pause. The copy is racy by
// design: the distance array is monotone (entries only ever decrease,
// and only to lengths of real paths), so a per-element atomic copy
// observes a mixture of older and newer upper bounds that is itself a
// valid upper-bound state. buf, when non-nil and large enough, is
// reused as the destination; pass the previous snapshot's Dist to
// checkpoint periodically at zero steady-state allocation.
//
// Checkpoint must not run concurrently with Prepare/PrepareWarm/Reset
// (which rewrite the array non-atomically); any time between a Prepare
// return and the next Prepare call — including during and after Launch
// — is safe.
func (s *Solver) Checkpoint(buf []uint32) Snapshot {
	n := s.d.Len()
	if cap(buf) < n {
		buf = make([]uint32, n)
	}
	buf = buf[:n]
	settled := 0
	for lo := 0; lo < n; lo += checkpointBlock {
		hi := lo + checkpointBlock
		if hi > n {
			hi = n
		}
		fault.Inject(fault.CheckpointWindow, lo/checkpointBlock)
		settled += s.d.AtomicCopyRange(buf, lo, hi)
	}
	return Snapshot{
		Source:      s.source,
		Dist:        buf,
		Relaxations: s.Progress(),
		Settled:     settled,
	}
}

// Progress returns the relaxation count workers have published so far
// (each publishes once per chunk.Size entries it drains and once per
// stolen chunk, so it trails the exact per-worker counters by at most
// one chunk's worth of entries each). It is the
// monotone liveness signal a stall watchdog polls: a running solve
// that stops moving this counter is stuck, not slow.
func (s *Solver) Progress() int64 {
	var total int64
	for _, w := range s.ws {
		total += w.relaxPub.Load()
	}
	return total
}

// DumpState renders each worker's termination-relevant state plus all
// goroutine stacks — the post-mortem a stall watchdog attaches before
// failing a wedged solve. A worker's curr= is its last published level
// (its latest exposed or stolen work, ∞ while idle), which trails the
// bucket it is draining when it advanced without exposing anything.
func (s *Solver) DumpState() string {
	return dumpWorkerStates(s.ws)
}

// dumpWorkerStates is the shared diagnostic formatter behind DumpState
// and the fault-stress watchdog in tests.
func dumpWorkerStates(ws []*worker) string {
	var b strings.Builder
	for _, w := range ws {
		if w == nil {
			continue
		}
		curr := "∞"
		if c := w.curr.Load(); c != infPrio {
			curr = fmt.Sprint(c)
		}
		fmt.Fprintf(&b, "worker %d: curr=%s stealing=%v dq.len=%d relaxed=%d\n",
			w.id, curr, w.stealing.Load(), w.dq.Len(), w.relaxPub.Load())
	}
	if len(ws) > 0 && ws[0] != nil {
		fmt.Fprintf(&b, "global ops counter: %d\n", ws[0].ops.Load())
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	fmt.Fprintf(&b, "goroutines:\n%s", buf)
	return b.String()
}

// PartialSnapshot resets the solver for a solve from source and
// returns the initial distance snapshot (∞ everywhere, 0 at source)
// without launching a single worker. It is the pre-cancelled
// short-circuit: a caller whose context is already done can hand back
// a Result honoring the partial-snapshot contract at zero solve cost.
// The returned slice aliases the solver's distance array, exactly as
// Solve's does.
func (s *Solver) PartialSnapshot(source graph.Vertex) []uint32 {
	s.Reset(source)
	return s.d.Snapshot()
}

// Reset restores the pre-run state for a solve from source: distances
// refilled, every worker's buffer/deque/buckets drained back into its
// chunk pool (a completed run leaves them empty; a cancelled one does
// not) and each pool handed back the chunks thieves took from it,
// scheduling RNGs reseeded so a reused solver schedules identically to
// a fresh one, and the idle count zeroed (a worker that panicked inside
// its idle loop never lowered it). Solve calls it automatically.
func (s *Solver) Reset(source graph.Vertex) {
	s.ops.Store(0)
	s.idle.Store(0)
	s.source = source
	s.d.Reset(source)
	for _, w := range s.ws {
		w.reset()
	}
	s.balancePools()
}

// balancePools hands every pool back the chunks its worker lent out.
// A stolen chunk is recycled into its thief's pool, so over a solve
// chunks drift from victims to thieves, and a victim whose pool ran dry
// would allocate again in the next solve. Between solves every chunk
// but each worker's buffer sits in some pool, so a worker is owed the
// chunks it made less its buffer (at most chunk.MaxFree); chunks move
// from pools above what they are owed to pools below it. Every pool is
// quiescent here, so they move without synchronization.
func (s *Solver) balancePools() {
	owed := func(w *worker) int { return min(w.pool.Made()-1, chunk.MaxFree) }
	donor := 0
	for _, w := range s.ws {
		for w.pool.Free() < owed(w) {
			for s.ws[donor].pool.Free() <= owed(s.ws[donor]) {
				if donor++; donor == len(s.ws) {
					return // chunks were dropped at a pool's cap
				}
			}
			w.pool.Put(s.ws[donor].pool.Get())
		}
	}
}
