package wasp

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"wasp/internal/core"
	"wasp/internal/graph"
	"wasp/internal/metrics"
	"wasp/internal/parallel"
	"wasp/internal/trace"
	"wasp/internal/verify"
)

// ErrSessionBusy is returned by Session.Run when a solve is already in
// flight on the same session. A Session serializes solves; run one
// session per goroutine to solve concurrently.
var ErrSessionBusy = errors.New("wasp: session already running a solve")

// Session is a reusable solver bound to one graph and one option set.
// NewSession preallocates everything a solve needs — the distance
// array, per-worker deques, chunk pools, thread-local buckets, metrics
// storage and the shortest-path-tree leaf bitmap — and Run resets and
// reuses it, so steady-state repeated queries allocate almost nothing
// and cause no GC churn. This is the paper's §1 access pattern made
// explicit: betweenness/closeness centrality run one SSSP per pivot
// over a fixed graph, and RunMany is built on top of this type.
//
// Reuse invariants:
//
//   - One solve at a time. Run returns ErrSessionBusy if called while
//     another Run on the same session is in flight; it never blocks.
//     The preallocated structures are single-owner between runs.
//   - The returned Result's Dist aliases session-owned storage and is
//     valid only until the next Run call. Callers that retain results
//     across solves must copy it (RunMany does this for you).
//   - A cancelled solve does not poison the session: the next Run
//     drains whatever the interrupted workers left behind and starts
//     fresh. Scheduling RNGs are reseeded per run, so a reused session
//     behaves identically to a fresh one.
//   - Full preallocation applies to AlgoWasp. The other algorithms
//     still work — Run solves them without preallocation inside the
//     same body, with the same result contract — so generic batch
//     drivers need no special cases. A one-shot RunContext is itself a
//     Session used once.
type Session struct {
	g        *Graph
	opt      Options      // defaults applied
	solver   *core.Solver // non-nil on the preallocated Wasp path
	m        *metrics.Set // the observer's when observing, else session-owned; reset per run
	obs      *Observer    // bound at NewSession; nil when not observing
	tl       *trace.Log   // the observer's live event log (nil without one)
	snapBuf  []uint32     // checkpoint destination, reused across captures
	inFlight atomic.Bool
}

// NewSession validates g and opt and preallocates a Session. The
// options are captured with defaults applied (Workers and Delta are
// defaulted here, before anything is sized by them); later mutations of
// opt by the caller have no effect on the session.
func NewSession(g *Graph, opt Options) (*Session, error) {
	if g == nil {
		return nil, fmt.Errorf("wasp: nil graph")
	}
	opt = opt.withDefaults()
	if opt.Algorithm < 0 || opt.Algorithm >= numAlgorithms {
		return nil, fmt.Errorf("wasp: unknown algorithm %d", opt.Algorithm)
	}
	supervised := (opt.CheckpointInterval > 0 && opt.CheckpointSink != nil) || opt.StallTimeout > 0
	if supervised && opt.Algorithm != AlgoWasp {
		return nil, fmt.Errorf("wasp: checkpoint/stall supervision requires AlgoWasp, not %s", opt.Algorithm)
	}
	s := &Session{g: g, opt: opt}
	if opt.Observer != nil {
		// The observer is bound for the session's lifetime: every run
		// on this session feeds it, and a second session (or one-shot
		// run) trying to share it is rejected instead of racing.
		if err := opt.Observer.bind(); err != nil {
			return nil, err
		}
		s.obs = opt.Observer
		s.tl, s.m = s.obs.attach(opt.Workers)
	} else {
		s.m = metrics.NewSet(opt.Workers)
	}
	if opt.Algorithm == AlgoWasp {
		s.solver = core.NewSolver(g, coreOptions(opt, s.m, s.tl))
	}
	return s, nil
}

// Observer returns the Observer bound at NewSession, or nil. Between
// runs it holds the most recent run alone; the pool hands it to
// PoolOptions.OnSolve as SolveObservation.Observer.
func (s *Session) Observer() *Observer { return s.obs }

// Run solves SSSP from source on the session's graph, reusing the
// preallocated state. The cancellation contract is RunContext's: when
// ctx is cancelled before termination, Run returns a non-nil partial
// Result (Complete false, every finite distance a valid upper bound)
// together with an error wrapping ErrCancelled and ctx.Err().
//
// The returned Result's Dist aliases session-owned storage: it is
// overwritten by the next Run on this session. Copy it to retain it.
func (s *Session) Run(ctx context.Context, source Vertex) (*Result, error) {
	return s.run(ctx, source, nil)
}

// Resume solves from the checkpoint's source, warm-started from its
// upper-bound distances: the snapshot loads as the initial state and
// workers rebuild the frontier with a repair scan over violated
// triangle inequalities, so the work the seed already paid for is kept
// and the solve converges to exactly the distances a cold run
// produces. Any upper-bound seed qualifies — a crash checkpoint or
// MutationDelta.Seed's repair of an exact pre-mutation solution. The
// checkpoint must belong to the session's graph (checked against the
// shape triple and the weight-covering content fingerprint). Resume
// requires AlgoWasp, whose sessions run on the preallocated solver.
// Result.Elapsed continues from cp.Elapsed rather than restarting the
// clock; Result.PriorElapsed records the inherited portion.
func (s *Session) Resume(ctx context.Context, cp *Checkpoint) (*Result, error) {
	if err := seedMatches(s.g, cp); err != nil {
		return nil, err
	}
	if err := warmStartSupported(s.opt); err != nil {
		return nil, err
	}
	return s.run(ctx, Vertex(cp.Source), cp)
}

// run is the one solve body — Run, Resume and RunContext all end here:
// warm, when non-nil, is a validated checkpoint to seed from (Resume
// admits it only on the preallocated path).
func (s *Session) run(ctx context.Context, source Vertex, warm *Checkpoint) (*Result, error) {
	if int(source) >= s.g.NumVertices() {
		return nil, fmt.Errorf("wasp: source %d out of range for %d vertices", source, s.g.NumVertices())
	}
	if !s.inFlight.CompareAndSwap(false, true) {
		return nil, ErrSessionBusy
	}
	defer s.inFlight.Store(false)

	// Reset the metrics set and the observer's event log, so
	// Progress.Relaxations, Result.Metrics and the trace describe this
	// run alone, even one that never starts.
	s.m.Reset()
	s.tl.Reset()

	if err := ctx.Err(); err != nil {
		// Pre-cancelled or pre-expired: honor the partial-result
		// contract without spinning up a single worker goroutine.
		return s.preCancelled(source), fmt.Errorf("%w: %w", ErrCancelled, err)
	}

	tok := new(parallel.Token)
	stopWatch := parallel.WatchContext(ctx, tok)
	defer stopWatch()

	res := &Result{Algorithm: s.opt.Algorithm}
	var base time.Duration // wall time the warm checkpoint already paid
	var stallErr error
	start := time.Now()
	if s.solver != nil {
		// Prepare before starting the supervisor: Checkpoint must never
		// observe Reset's plain rewrites of the distance array, and
		// after Prepare returns every write is an atomic lowering.
		if warm != nil {
			base = warm.Elapsed
			s.solver.PrepareWarm(graph.Vertex(source), warm.Dist)
		} else {
			s.solver.Prepare(graph.Vertex(source))
		}
		stopSupervisor := s.supervise(tok, base, start)
		r := s.solver.Launch(tok)
		if err := stopSupervisor(); err != nil && !r.Complete {
			// The watchdog cancelled a wedged solve. When the solve
			// completed despite a late watchdog trip the stall was a
			// false positive and the finished result stands.
			stallErr = err
		}
		res.Dist = r.Dist
	} else {
		res.Dist, res.Steps = solveOnce(s.g, source, s.opt, s.m, tok)
	}

	res.Elapsed = base + time.Since(start)
	res.PriorElapsed = base
	res.fillMetrics(s.m)
	if pe := tok.Err(); pe != nil {
		return nil, fmt.Errorf("wasp: %s solver panicked: %w", s.opt.Algorithm, pe)
	}
	if stallErr != nil {
		// The distances are a valid partial snapshot (and the sink
		// already received the forced final checkpoint), so hand them
		// back with the stall diagnosis.
		return res, stallErr
	}
	if err := ctx.Err(); err != nil {
		// Cancelled: the distances are a legitimate partial snapshot,
		// so hand them back alongside the error and skip verification.
		return res, fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	res.Complete = true
	if s.opt.Verify {
		if err := verify.Certificate(s.g, source, res.Dist); err != nil {
			return nil, fmt.Errorf("wasp: %s produced an invalid result: %w", s.opt.Algorithm, err)
		}
	}
	return res, nil
}

// emitCheckpoint captures the running solve's upper-bound state into
// the session's reusable snapshot buffer and wraps it with the graph
// fingerprint a resume needs. Called only from the supervisor
// goroutine, which serializes captures; the sink must be done with the
// snapshot before the next capture reuses the buffer.
func (s *Session) emitCheckpoint(base time.Duration, start time.Time) *Checkpoint {
	snap := s.solver.Checkpoint(s.snapBuf)
	s.snapBuf = snap.Dist
	cp := stamp(s.g, uint32(snap.Source), snap.Dist)
	cp.Elapsed = base + time.Since(start)
	cp.Relaxations = snap.Relaxations
	return cp
}

// supervise starts the per-run supervisor goroutine — the periodic
// checkpoint ticker and the stall watchdog share one goroutine so a
// supervised solve costs a single extra goroutine, not two. The
// returned stop function joins the supervisor and reports the stall
// error if the watchdog fired. When neither facility is configured it
// is a no-op returning a nil-returning stop.
//
// Stall detection polls Solver.Progress, the relaxation count workers
// publish once per chunk of entries: a solve that is merely slow keeps
// moving it, while a wedged one (livelocked termination protocol,
// deadlocked steal loop) freezes it. On detection the watchdog dumps
// per-worker scheduler state, force-emits a final checkpoint (so the
// stalled solve's work survives to a restart), cancels the run and
// reports ErrStalled.
func (s *Session) supervise(tok *parallel.Token, base time.Duration, start time.Time) (stop func() error) {
	sink := s.opt.CheckpointSink
	interval := s.opt.CheckpointInterval
	stallT := s.opt.StallTimeout
	ckptOn := interval > 0 && sink != nil
	if !ckptOn && stallT <= 0 {
		return func() error { return nil }
	}

	done := make(chan struct{})
	exited := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		defer close(exited)
		var ckptC <-chan time.Time
		if ckptOn {
			t := time.NewTicker(interval)
			defer t.Stop()
			ckptC = t.C
		}
		var stallC <-chan time.Time
		lastProg := int64(-1)
		lastMove := time.Now()
		if stallT > 0 {
			poll := stallT / 8
			if poll < time.Millisecond {
				poll = time.Millisecond
			}
			t := time.NewTicker(poll)
			defer t.Stop()
			stallC = t.C
		}
		for {
			select {
			case <-done:
				return
			case <-ckptC:
				sink(s.emitCheckpoint(base, start))
			case <-stallC:
				if p := s.solver.Progress(); p != lastProg {
					lastProg, lastMove = p, time.Now()
					continue
				}
				if time.Since(lastMove) < stallT {
					continue
				}
				dump := s.solver.DumpState()
				if sink != nil {
					sink(s.emitCheckpoint(base, start))
				}
				errCh <- fmt.Errorf("%w: no relaxation progress for %v\n%s", ErrStalled, stallT, dump)
				tok.Cancel()
				return
			}
		}
	}()
	return func() error {
		close(done)
		<-exited
		select {
		case err := <-errCh:
			return err
		default:
			return nil
		}
	}
}

// preCancelled builds the zero-work partial snapshot Run returns when
// the context was already done at entry: distances initialized for
// source (∞ everywhere else), Complete false, progress reflecting the
// one settled vertex. run has already reset the collectors, so
// Metrics reads zero. On the preallocated path the snapshot aliases
// session storage, exactly like any other Run result.
func (s *Session) preCancelled(source Vertex) *Result {
	res := &Result{Algorithm: s.opt.Algorithm}
	if s.solver != nil {
		res.Dist = s.solver.PartialSnapshot(graph.Vertex(source))
	} else {
		d := make([]uint32, s.g.NumVertices())
		for i := range d {
			d[i] = Infinity
		}
		d[source] = 0
		res.Dist = d
	}
	res.fillMetrics(s.m)
	return res
}

// detach makes res safe to retain across further solves on s by
// copying session-owned storage out of it. Results solved without
// preallocation already own their distances.
func (s *Session) detach(res *Result) *Result {
	if res != nil && s.solver != nil && res.Dist != nil {
		res.Dist = append([]uint32(nil), res.Dist...)
	}
	return res
}
