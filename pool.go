package wasp

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wasp/internal/fault"
	"wasp/internal/parallel"
)

// ErrOverloaded is returned by Pool.Run when the pool cannot admit the
// query: every session is busy and the admission queue is full, or the
// queue wait expired before a session freed up. It is the pool's
// backpressure signal — callers should shed, retry later, or surface
// HTTP 429 — and it is returned without spawning a single solver
// worker.
var ErrOverloaded = errors.New("wasp: pool overloaded")

// ErrPoolClosed is returned by Pool.Run once Close has begun: the pool
// no longer admits queries, and queued waiters are released with this
// error so a draining server never strands a caller.
var ErrPoolClosed = errors.New("wasp: pool closed")

// PoolOptions configures the overload behavior of a Pool.
type PoolOptions struct {
	// Sessions is the number of preallocated sessions — the maximum
	// number of concurrently executing solves (default 1). Each
	// session runs Options.Workers workers, so total parallelism is
	// Sessions × Workers.
	Sessions int
	// QueueDepth is the number of admitted-but-waiting queries allowed
	// beyond the executing ones (default 0). With K sessions and depth
	// Q, the K+Q+1-th concurrent Run fails fast with ErrOverloaded.
	QueueDepth int
	// QueueWait bounds how long an admitted query waits for a free
	// session before failing with ErrOverloaded. Zero or negative
	// means wait without a pool-imposed bound (the caller's context
	// still applies).
	QueueWait time.Duration
	// Deadline is the per-solve latency budget. When it expires the
	// solve is cancelled at its next cancellation point and Run
	// returns the partial upper-bound snapshot (Complete false,
	// Progress filled) with a nil error — graceful degradation rather
	// than failure. Zero means no pool-imposed deadline; a deadline on
	// the caller's context degrades the same way.
	Deadline time.Duration

	// Observe, when non-nil, gives every session in the pool its own
	// fresh Observer built from this config, a session rebuilt after a
	// quarantine included. Per-session observers never contend —
	// concurrent solves write disjoint buffers. Each holds its
	// session's most recent solve only, and OnSolve is where it is
	// read: SolveObservation.Observer, summed per solve by a caller
	// that keeps running totals. This is the one way to observe a
	// pool; NewPool rejects Options.Observer, since one observer
	// cannot serve K concurrent sessions.
	Observe *ObserverConfig

	// OnSolve, when non-nil, is called synchronously after every solve
	// (completed, degraded, failed or cancelled — admission rejects
	// never reach it), while the solve's session is still checked out
	// of the pool. Inside the callback the session's Observer (nil
	// unless Observe is set) is quiescent and safe to read or export;
	// the moment the callback returns the session re-enters rotation.
	// Keep it brief: it serializes with the session's next solve, not
	// with the pool. Cache hits never reach OnSolve — they touch no
	// session — so the hook (like the pool's latency stats) observes
	// real solver work only; read reuse traffic from Cache.Stats.
	OnSolve func(SolveObservation)

	// Cache, when non-nil, puts a result-reuse layer in front of the
	// pool: Run and Resume consult it before taking an admission
	// ticket — exact hits return a previously completed solve's
	// distances without copying them, and concurrent identical queries
	// coalesce onto one in-flight solve; a miss solves cold unless it
	// came through Resume (see Cache). Results from a
	// cache-backed pool are read-only shared snapshots: safe to keep,
	// never overwritten, but their Dist must be cloned before writing.
	// One Cache may front many pools; entries are keyed by CacheScope
	// plus the graph's content fingerprint, so distinct graphs never
	// alias. A Registry sets it from RegistryOptions.Cache.
	Cache *Cache
	// CacheScope partitions this pool's cache entries from other pools
	// sharing the same Cache (the Registry sets "name@version"). Pools
	// of bit-identical graphs given the same scope share entries —
	// which is sound: every algorithm computes the same exact
	// distances. The scope also names this pool in audit failures
	// (AuditFailure.Scope), so it is kept even when Cache is nil.
	CacheScope string

	// Auditor, when non-nil, samples this pool's served solve results
	// for background certification (see Auditor): every stride-th
	// result that Run/Resume would hand back — complete or degraded —
	// is submitted with the pool's CacheScope as its audit identity.
	// Cache hits are never re-audited (they serve a result that was
	// itself subject to sampling when first solved). The unsampled
	// cost is one atomic increment; sampled results are certified off
	// the serving path when the auditor is Async. A Registry sets it
	// from RegistryOptions.Audit.
	Auditor *Auditor

	// Governor, when non-nil, puts the pool under adaptive overload
	// control: the pool feeds it queue-delay, queue-depth and
	// solve-latency observations, and applies its brownout ladder to
	// every admission — reuse-only admission at BrownoutCacheOnly
	// (cache-backed pools shed unseeded misses first), a clamped deadline
	// at BrownoutPartial, full shedding with an adaptive Retry-After
	// at BrownoutShed. One governor may be shared by many pools (the
	// Registry's per-graph pools all see the same RegistryOptions.Pool,
	// so a governor set there makes daemon-wide decisions). Nil means
	// the pool sheds only on queue overflow, as before.
	Governor *Governor
}

// SolveObservation describes one finished pool solve to the OnSolve
// hook. It is the one per-solve record a pool emits: latency, outcome
// and, through Observer, the solve's scheduler counters and trace.
type SolveObservation struct {
	Source Vertex
	// Elapsed is wall time spent inside this solve in this process —
	// queue wait excluded, and for warm-started solves the seed
	// checkpoint's prior wall time excluded too. The pool's latency
	// ring (PoolStats.P50/P99) records the same quantity. Contrast
	// Result.Elapsed, which is cumulative across a warm start: there
	// Result.PriorElapsed carries the inherited portion.
	Elapsed  time.Duration
	Complete bool  // the solve ran to termination
	Err      error // as Pool.Run would return it (nil for degraded)
	// Observer is the solving session's observer, quiescent for the
	// duration of the callback. It describes this solve alone; after a
	// quarantine retry, the retry alone. Nil unless PoolOptions.Observe
	// is set.
	Observer *Observer
}

// withDefaults returns a copy of o with defaults applied.
func (o PoolOptions) withDefaults() PoolOptions {
	if o.Sessions <= 0 {
		o.Sessions = 1
	}
	if o.QueueDepth < 0 {
		o.QueueDepth = 0
	}
	return o
}

// retryBackoff is the base pause before the single retry that follows
// a quarantined (panicked) session, jittered to ±50%.
const retryBackoff = 2 * time.Millisecond

// PoolStats is a point-in-time snapshot of a Pool's counters, the
// observability surface behind a serving layer's /stats endpoint. The
// gauges (Sessions through Queued) describe the pool itself. The
// counters and latency quantiles are cumulative over the pool's life;
// under a Registry they are cumulative per graph name instead (see
// Registry.Stats).
type PoolStats struct {
	Sessions int // configured session count
	Idle     int // sessions currently free
	InFlight int // solves currently executing
	Queued   int // admitted queries waiting for a session

	Completed   int64 // solves that ran to termination
	Degraded    int64 // solves returned partial after a deadline expiry
	Shed        int64 // queries rejected with ErrOverloaded
	Quarantined int64 // sessions torn down and rebuilt after a panic

	P50, P99 time.Duration // latency of recent solves (completed + degraded)
}

// Pool is a fixed-size pool of preallocated Sessions behind a bounded
// admission queue — the concurrent, overload-safe front door to
// repeated SSSP queries over one graph. A Session serializes solves
// (ErrSessionBusy); a Pool multiplexes many concurrent callers over K
// sessions with three robustness guarantees:
//
//   - Admission control: at most Sessions solves execute and at most
//     QueueDepth more wait. Beyond that, Run fails fast with
//     ErrOverloaded before any solver state is touched, so overload
//     produces bounded queues and prompt rejections instead of
//     goroutine pileup.
//   - Graceful degradation: a solve that exceeds the Deadline budget
//     (or the caller's context deadline) returns its partial
//     upper-bound snapshot — Complete false, Progress.Settled > 0 —
//     with a nil error. Explicit cancellation still returns
//     ErrCancelled.
//   - Fault containment: a solve that dies with a worker panic
//     quarantines its session (the preallocated state is discarded),
//     rebuilds a fresh one, and retries the query once after a
//     jittered backoff. One poisoned solve costs one rebuild, never
//     the pool.
//
// Unlike Session.Run, results returned by Pool.Run never alias session
// storage, so they are safe to retain while other queries execute. On
// a pool without a Cache each result owns its distances. On a
// cache-backed pool a result's Dist is a read-only snapshot shared
// with the cache and with every other caller served the same answer:
// it is never overwritten, and a caller must clone it before writing
// (see Cache).
type Pool struct {
	g    *Graph
	opt  Options     // session options, defaults applied
	conf PoolOptions // defaults applied

	slots   chan *Session // idle sessions
	tickets chan struct{} // admission capacity: Sessions + QueueDepth
	drain   chan struct{} // closed by Close: releases queued waiters

	cache      *Cache    // nil unless conf.Cache was set
	cacheScope string    // conf.CacheScope, fixed at construction
	gov        *Governor // nil unless conf.Governor was set
	aud        *Auditor  // nil unless conf.Auditor was set

	mu     sync.Mutex // guards closed and the admission/wg ordering
	closed bool
	wg     sync.WaitGroup // admitted queries still inside Run

	queued   atomic.Int64
	inFlight atomic.Int64

	*poolCounters
}

// poolCounters is the cumulative half of PoolStats: outcome counters
// and the latency window. NewPool gives every pool its own block; a
// Registry hands each version of one graph the block its graphEntry
// owns, so the series survive reloads, mutations and rollbacks.
type poolCounters struct {
	completed   atomic.Int64
	degraded    atomic.Int64
	shed        atomic.Int64
	quarantined atomic.Int64

	lat latencyRing
}

// NewPool validates g and opt once and preallocates conf.Sessions
// sessions. Construction cost is Sessions × the cost of NewSession;
// Run never allocates solver state.
func NewPool(g *Graph, opt Options, conf PoolOptions) (*Pool, error) {
	return newPool(g, opt, conf, new(poolCounters))
}

// newPool is NewPool feeding ctr, which it shares with any other pool
// given the same block.
func newPool(g *Graph, opt Options, conf PoolOptions, ctr *poolCounters) (*Pool, error) {
	conf = conf.withDefaults()
	if opt.Observer != nil {
		return nil, fmt.Errorf("wasp: a Pool does not take Options.Observer (one observer cannot serve every session); set PoolOptions.Observe for one observer per session")
	}
	p := &Pool{
		g:          g,
		opt:        opt.withDefaults(),
		conf:       conf,
		cache:      conf.Cache,
		cacheScope: conf.CacheScope, // audit identity even on cacheless pools
		gov:        conf.Governor,
		aud:        conf.Auditor,
		slots:      make(chan *Session, conf.Sessions),
		tickets:    make(chan struct{}, conf.Sessions+conf.QueueDepth),
		drain:      make(chan struct{}),

		poolCounters: ctr,
	}
	for i := 0; i < conf.Sessions; i++ {
		sess, err := p.newSession()
		if err != nil {
			return nil, err
		}
		p.slots <- sess
	}
	for i := 0; i < cap(p.tickets); i++ {
		p.tickets <- struct{}{}
	}
	return p, nil
}

// Run solves SSSP from source on the first free session, blocking in
// the admission queue up to QueueWait when all sessions are busy.
//
// Outcomes:
//
//   - (complete result, nil): the solve terminated.
//   - (partial result, nil): the Deadline budget (or the caller's
//     context deadline) expired — Complete is false, every finite
//     distance a valid upper bound, Progress quantifies coverage.
//   - (nil, ErrOverloaded): admission failed; no solver work was done.
//   - (partial or nil, ErrCancelled-wrapping error): the caller's
//     context was explicitly cancelled.
//   - (nil, ErrPoolClosed): Close has begun.
//   - (nil, other error): argument error, or a solve panicked twice
//     in a row (the error carries the parallel.PanicError).
//
// The returned Result is detached from session storage and safe to
// retain; on a cache-backed pool its Dist is read-only (see Pool).
func (p *Pool) Run(ctx context.Context, source Vertex) (*Result, error) {
	if int(source) >= p.g.NumVertices() {
		return nil, fmt.Errorf("wasp: source %d out of range for %d vertices", source, p.g.NumVertices())
	}
	return p.serve(ctx, source, nil)
}

// Resume is Run warm-started from a checkpoint: the query enters the
// same admission queue, runs on the first free session via
// Session.Resume, and inherits every pool behavior — deadline
// degradation, quarantine-and-retry, detached results. The checkpoint
// determines the source and must belong to the pool's graph; it is
// checked here — shape and content fingerprint — before a ticket is
// taken. On a cache-backed pool an
// already-cached result for the checkpoint's source is returned
// directly (the cache holds complete exact distances, strictly ahead
// of any resumable snapshot); otherwise the checkpoint seeds the solve
// as usual. A MutationDelta.Seed repair seed carries the post-mutation
// fingerprint, so its result is cached under the new graph's identity.
func (p *Pool) Resume(ctx context.Context, cp *Checkpoint) (*Result, error) {
	if err := seedMatches(p.g, cp); err != nil {
		return nil, err
	}
	return p.serve(ctx, Vertex(cp.Source), cp)
}

// serve is the front door Run and Resume share: governor admission,
// then the cache (when attached) or straight to a session. warm, when
// non-nil, is a validated checkpoint to seed the solve from.
func (p *Pool) serve(ctx context.Context, source Vertex, warm *Checkpoint) (*Result, error) {
	lvl := p.governorAdmit()
	if lvl == BrownoutShed {
		return nil, ErrOverloaded
	}
	if p.cache == nil {
		return p.admitAndSolve(ctx, source, warm)
	}
	// The closed check must precede the cache: a hit needs no session,
	// but serving one from a closed pool would break the contract that
	// Run refuses forever once Close has begun.
	if p.isClosed() {
		return nil, ErrPoolClosed
	}
	// A Resume is never shed by reuse-only admission: the caller's
	// seed is the reuse. getOrSolve sheds only misses that would solve
	// cold.
	return p.cache.getOrSolve(ctx, p, source, warm, lvl >= BrownoutCacheOnly)
}

// governorAdmit feeds the governor one admission attempt and returns
// the ladder rung the attempt is subject to. At BrownoutShed the shed
// is counted here (pool and governor counters both) and the caller
// returns ErrOverloaded without touching admission state.
func (p *Pool) governorAdmit() BrownoutLevel {
	if p.gov == nil {
		return BrownoutNone
	}
	p.gov.observeAttempt(int(p.queued.Load()), p.conf.QueueDepth)
	lvl := p.gov.Level()
	if lvl == BrownoutShed {
		p.shed.Add(1)
		p.gov.observeShed()
	}
	return lvl
}

// admitAndSolve takes an admission ticket and a session and solves:
// warm, when non-nil, is a validated checkpoint to seed the solve from.
func (p *Pool) admitAndSolve(ctx context.Context, source Vertex, warm *Checkpoint) (*Result, error) {
	// Admission: take a ticket or shed. The mutex orders the closed
	// check, the ticket grab and the wg.Add against Close, so Close
	// can never miss an admitted query.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	select {
	case <-p.tickets:
	default:
		p.mu.Unlock()
		p.shed.Add(1)
		return nil, ErrOverloaded
	}
	p.wg.Add(1)
	p.mu.Unlock()
	defer p.wg.Done()
	defer func() { p.tickets <- struct{}{} }()

	// Acquire a session: free-slot fast path first (so a query that
	// can run, runs — even with an already-expired deadline, which
	// then degrades instead of erroring), then a wait bounded by
	// QueueWait, the caller's context and drain.
	var sess *Session
	select {
	case sess = <-p.slots:
	default:
		select {
		case <-p.drain:
			// Close began between the admission check and here; without
			// this check the queued select below races a freed slot
			// against the drain signal, and a query admitted before the
			// close could nondeterministically start a fresh solve after
			// it. ErrPoolClosed, deterministically.
			return nil, ErrPoolClosed
		default:
		}
		var timeout <-chan time.Time
		if p.conf.QueueWait > 0 {
			t := time.NewTimer(p.conf.QueueWait)
			defer t.Stop()
			timeout = t.C
		}
		waitStart := time.Now()
		p.queued.Add(1)
		select {
		case sess = <-p.slots:
			p.queued.Add(-1)
			p.gov.observeWait(time.Since(waitStart))
			// The slot and the drain signal may become ready together;
			// Go's select picks randomly, so re-check drain to keep the
			// contract deterministic: once Close begins, no waiter
			// starts a new solve. The slot goes straight back — Close
			// holds no reference to it, and the buffered channel always
			// has room.
			select {
			case <-p.drain:
				p.slots <- sess
				return nil, ErrPoolClosed
			default:
			}
		case <-timeout:
			p.queued.Add(-1)
			p.shed.Add(1)
			// A timed-out wait is still a measured wait — the strongest
			// queue-delay sample the governor can get.
			p.gov.observeWait(p.conf.QueueWait)
			return nil, ErrOverloaded
		case <-ctx.Done():
			p.queued.Add(-1)
			return nil, fmt.Errorf("%w: %w", ErrCancelled, ctx.Err())
		case <-p.drain:
			p.queued.Add(-1)
			return nil, ErrPoolClosed
		}
	}

	p.inFlight.Add(1)
	start := time.Now()
	res, err := p.solveOn(ctx, &sess, source, warm)
	elapsed := time.Since(start)
	// Detach before the session goes back into rotation: once another
	// caller grabs it, the session-owned distance array is theirs.
	res = sess.detach(res)
	p.inFlight.Add(-1)

	// Corruption site: a seeded chaos plan can flip one bit of the
	// detached result here, after every solver-side check has passed —
	// the silent wrong answer the sampled audit below must catch. The
	// flip lands in the caller-visible (and cache-bound) array exactly
	// like real memory corruption would.
	if res != nil && len(res.Dist) > 0 && fault.Hit(fault.DistFlip, int(source)) {
		res.Dist[(int(source)*31+17)%len(res.Dist)] ^= 1 << 6
	}

	degraded := errors.Is(err, ErrCancelled) && errors.Is(err, context.DeadlineExceeded) && res != nil
	if res != nil && (err == nil || degraded) {
		// Audit sampling: served results only (complete or degraded) —
		// a query that errored served no distances. One atomic add when
		// the result is not elected; nil-safe when no auditor is set.
		p.aud.maybeAudit(p.g, p.cacheScope, source, res.Dist, res.Complete)
	}
	if p.conf.OnSolve != nil {
		// The session is still checked out: its observer is quiescent
		// for the duration of the callback.
		hookErr := err
		if degraded {
			hookErr = nil
		}
		p.conf.OnSolve(SolveObservation{
			Source:   source,
			Elapsed:  elapsed,
			Complete: res != nil && res.Complete,
			Err:      hookErr,
			Observer: sess.Observer(),
		})
	}
	p.slots <- sess // sess may have been rebuilt by quarantine

	switch {
	case err == nil:
		p.completed.Add(1)
		p.lat.record(elapsed)
		p.gov.observeSolve(elapsed)
	case degraded:
		// The latency budget expired — the pool's own Deadline or a
		// deadline the caller set. Degrade: the partial upper-bound
		// snapshot is the answer, not an error.
		p.degraded.Add(1)
		p.lat.record(elapsed)
		p.gov.observeSolve(elapsed)
		return res, nil
	}
	return res, err
}

// newSession builds one of the pool's sessions, whether it fills a
// slot at NewPool or replaces a quarantined one, with a fresh observer
// when the pool observes.
func (p *Pool) newSession() (*Session, error) {
	opt := p.opt
	if p.conf.Observe != nil {
		opt.Observer = NewObserver(*p.conf.Observe)
	}
	return NewSession(p.g, opt)
}

// solveOn runs one query on *sess, applying the deadline budget and
// the quarantine-and-retry policy. On a panic the poisoned session is
// replaced in *sess — the caller returns whatever session is there to
// the pool, keeping the pool at full strength.
func (p *Pool) solveOn(ctx context.Context, sess **Session, source Vertex, warm *Checkpoint) (*Result, error) {
	run := func() (*Result, error) {
		rctx := ctx
		d := p.conf.Deadline
		if p.gov.Level() >= BrownoutPartial {
			// Brownout: clamp the budget so every admitted solve does
			// bounded work and degrades to a partial upper-bound result
			// through the pool's normal deadline path.
			if dd := p.gov.DegradedDeadline(); dd > 0 && (d <= 0 || dd < d) {
				d = dd
			}
		}
		if d > 0 {
			var cancel context.CancelFunc
			rctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		if warm != nil {
			return (*sess).Resume(rctx, warm)
		}
		return (*sess).Run(rctx, source)
	}

	res, err := run()
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		return res, err
	}

	// Quarantine: the panicked session's preallocated state (observer
	// included) is discarded wholesale and a fresh session takes its
	// slot. NewSession cannot fail here — the same (g, opt) pair was
	// validated at NewPool.
	p.quarantined.Add(1)
	fresh, nerr := p.newSession()
	if nerr != nil {
		return nil, fmt.Errorf("wasp: rebuilding quarantined session: %w", nerr)
	}
	*sess = fresh

	// One retry after a jittered backoff, unless the caller is gone.
	backoff := retryBackoff/2 + rand.N(retryBackoff)
	select {
	case <-time.After(backoff):
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %w", ErrCancelled, ctx.Err())
	}
	res, err = run()
	if errors.As(err, &pe) {
		// Second panic: quarantine again so the pool stays healthy,
		// but surface the failure — retrying further would loop.
		p.quarantined.Add(1)
		if fresh, nerr := p.newSession(); nerr == nil {
			*sess = fresh
		}
		return nil, err
	}
	return res, err
}

// isClosed reports whether Close has begun. The cache front-door uses
// it so that even session-free hits respect the close contract.
func (p *Pool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Close stops admission, releases queued waiters with ErrPoolClosed,
// and waits for in-flight solves to finish — or for ctx to expire,
// in which case it returns ctx.Err() with solves still draining.
// Callers wanting a bounded drain give the pool a Deadline (so no
// solve outlives the budget) and pass a ctx sized to it. Close is
// idempotent; Run returns ErrPoolClosed forever after.
func (p *Pool) Close(ctx context.Context) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
	} else {
		p.closed = true
		close(p.drain)
		p.mu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() PoolStats {
	st := p.poolCounters.stats()
	st.Sessions = p.conf.Sessions
	st.Idle = len(p.slots)
	st.InFlight = int(p.inFlight.Load())
	st.Queued = int(p.queued.Load())
	return st
}

// stats snapshots the cumulative half of a PoolStats, gauges zero.
func (c *poolCounters) stats() PoolStats {
	p50, p99 := c.lat.quantiles()
	return PoolStats{
		Completed:   c.completed.Load(),
		Degraded:    c.degraded.Load(),
		Shed:        c.shed.Load(),
		Quarantined: c.quarantined.Load(),
		P50:         p50,
		P99:         p99,
	}
}

// latencyRing keeps the last ringSize solve latencies for quantile
// estimates. A fixed window is deliberate: a serving layer wants
// "recent p99", not all-time.
type latencyRing struct {
	mu   sync.Mutex
	buf  [ringSize]time.Duration
	next int
	n    int
}

const ringSize = 512

func (l *latencyRing) record(d time.Duration) {
	l.mu.Lock()
	l.buf[l.next] = d
	l.next = (l.next + 1) % ringSize
	if l.n < ringSize {
		l.n++
	}
	l.mu.Unlock()
}

func (l *latencyRing) quantiles() (p50, p99 time.Duration) {
	l.mu.Lock()
	n := l.n
	sorted := make([]time.Duration, n)
	copy(sorted, l.buf[:n])
	l.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[n/2], sorted[(n*99)/100]
}
