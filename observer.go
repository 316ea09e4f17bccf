package wasp

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"wasp/internal/metrics"
	"wasp/internal/trace"
)

// TraceEvent is one scheduler transition recorded by an Observer: a
// run of bucket advances, a steal hit, a contended steal miss, an idle
// transition or a termination, timestamped relative to the start of
// its solve. Quiet bucket advances are folded: one TraceBucketAdvance
// event stands for up to 64 of them.
type TraceEvent = trace.Event

// TraceKind classifies a TraceEvent.
type TraceKind = trace.Kind

// Trace event kinds, re-exported from the scheduler's internal log.
const (
	// TraceBucketAdvance: the worker made B consecutive advances
	// through its local buckets (1 to 64), the last to priority level
	// A. A run is written when it reaches 64 advances or the worker
	// records any other event or leaves the solve, so the sum of B
	// over a worker's advance events is its WorkerMetrics.BucketAdvances
	// when nothing was dropped.
	TraceBucketAdvance = trace.BucketAdvance
	// TraceStealHit: a steal round got B chunks, best priority A.
	TraceStealHit = trace.StealHit
	// TraceStealMiss: a contended steal round — a victim's deque read
	// non-empty but the round won no chunk (A = the priority the thief
	// tried to beat). Rounds that found nothing to contend for are
	// counted in WorkerMetrics.StealRounds, not traced.
	TraceStealMiss = trace.StealMiss
	// TraceIdleEnter: the worker published priority ∞ and began idling.
	TraceIdleEnter = trace.IdleEnter
	// TraceTerminate: the worker concluded global termination.
	TraceTerminate = trace.Terminate
)

// WorkerMetrics holds one worker's execution counters (relaxations,
// steal statistics, per-tier hits, bucket advances, timing breakdowns).
// It is also the element type of Observer.PerWorker and the aggregate
// type of Result.Metrics.
type WorkerMetrics = metrics.Worker

// MaxStealTiers bounds WorkerMetrics.TierHits: Wasp's NUMA hierarchies
// expose at most three victim tiers (same node, same socket, remote).
const MaxStealTiers = metrics.MaxStealTiers

// DefaultTraceCapacity is the per-worker event cap used when
// ObserverConfig.TraceCapacity is zero.
const DefaultTraceCapacity = trace.DefaultCap

// ObserverConfig configures what an Observer collects.
type ObserverConfig struct {
	// TraceCapacity caps the number of buffered scheduler events per
	// worker. Zero means DefaultTraceCapacity; a negative value
	// disables event collection entirely (counters still collect).
	// When a solve overflows the cap the oldest events are dropped and
	// counted — see Observer.DroppedEvents.
	TraceCapacity int

	// Timing additionally records wall time spent inside steal rounds
	// and the idle loop (WorkerMetrics.StealNS / IdleNS). Off by
	// default: the timestamps cost more than a steal round.
	Timing bool
}

// Observer collects a solve's scheduler internals — the per-worker
// event trace and work counters behind the paper's §6 evaluation —
// without touching the solver's hot path when absent: every
// instrumentation site is a nil check on the internal log, so a run
// without an Observer pays one predictable branch per event, no
// interface dispatch, no allocation.
//
// Attach an Observer through Options.Observer, or let a Pool build one
// per session through PoolOptions.Observe. One Observer serves one
// solve at a time: a Session binds it for the session's lifetime (all
// that session's runs feed it), a one-shot Run binds it for the call.
// Binding it to two concurrent users is rejected by NewSession/Run
// rather than racing.
//
// Everything an Observer reports describes its most recent solve:
// Events, PerWorker, Totals, DroppedEvents, WriteChromeTrace and
// WriteSummary. Read them after the solve returns and before the next
// one starts — the buffers are live during a run; on a pool, read them
// inside PoolOptions.OnSolve. Nothing carries over from one solve to
// the next, so a caller that wants running totals sums Totals per
// solve (ssspd does so in its OnSolve hook).
type Observer struct {
	cfg   ObserverConfig
	bound atomic.Bool // held by one Session or one-shot Run at a time

	mu      sync.Mutex
	workers int
	log     *trace.Log   // nil when TraceCapacity < 0
	set     *metrics.Set // always non-nil once attached
}

// NewObserver returns an Observer ready to pass as Options.Observer.
func NewObserver(cfg ObserverConfig) *Observer {
	return &Observer{cfg: cfg}
}

// bind claims the observer for one user (a session or a one-shot run).
func (o *Observer) bind() error {
	if o == nil {
		return nil
	}
	if !o.bound.CompareAndSwap(false, true) {
		return fmt.Errorf("wasp: Observer is already attached to another session or run")
	}
	return nil
}

// release returns the observer to the unbound state.
func (o *Observer) release() {
	if o != nil {
		o.bound.Store(false)
	}
}

// attach sizes the collectors for p workers, reusing prior storage
// when the shape matches, and resets them for a new run. It returns
// the live log (nil when tracing is disabled) and metrics set the
// solver writes into.
func (o *Observer) attach(p int) (*trace.Log, *metrics.Set) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.set == nil || o.workers != p {
		o.workers = p
		o.set = metrics.NewSet(p)
		o.log = nil
		if o.cfg.TraceCapacity >= 0 {
			cap := o.cfg.TraceCapacity
			if cap == 0 {
				cap = DefaultTraceCapacity
			}
			o.log = trace.NewCapped(p, cap)
		}
	}
	o.set.Reset()
	o.log.Reset()
	return o.log, o.set
}

// Workers returns the worker count the observer is currently sized
// for (0 before the first attach).
func (o *Observer) Workers() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.workers
}

// Events returns the most recent solve's scheduler events in time
// order, ties broken deterministically by worker id and recording
// order. It returns nil when tracing is disabled. Call between solves.
func (o *Observer) Events() []TraceEvent { return o.log.Merged() }

// DroppedEvents reports how many of the most recent solve's events
// were lost to the per-worker capacity cap (oldest dropped first).
func (o *Observer) DroppedEvents() uint64 { return o.log.Dropped() }

// PerWorker returns a copy of the most recent solve's per-worker
// counters — the breakdown Result.Metrics flattens. Call between
// solves.
func (o *Observer) PerWorker() []WorkerMetrics {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.set == nil {
		return nil
	}
	return o.set.PerWorker()
}

// Totals returns the most recent solve's aggregated counters. Call
// between solves.
func (o *Observer) Totals() WorkerMetrics {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.set == nil {
		return WorkerMetrics{}
	}
	return o.set.Totals()
}

// WriteChromeTrace renders the most recent solve's event trace in the
// Chrome trace event format — load the output in chrome://tracing or
// https://ui.perfetto.dev to see every worker's schedule on a shared
// timeline. It errors when tracing is disabled. Call between solves.
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	o.mu.Lock()
	log := o.log
	o.mu.Unlock()
	if log == nil {
		return fmt.Errorf("wasp: observer has no trace (TraceCapacity < 0 or no solve yet)")
	}
	return log.WriteChrome(w)
}

// WriteSummary renders a human-readable digest of the most recent
// solve: per-worker work counters, the steal-tier breakdown of §4.2
// and bucket-advance cadence. The events line counts advances, not
// advance events: the sum of B over the retained advance events. Call
// between solves.
func (o *Observer) WriteSummary(w io.Writer) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.set == nil {
		return fmt.Errorf("wasp: observer has not seen a solve")
	}
	per := o.set.PerWorker()
	tot := o.set.Totals()

	fmt.Fprintf(w, "scheduler summary: %d workers\n", o.workers)
	if o.log != nil {
		fmt.Fprintf(w, "events: %d retained", o.log.Len())
		if d := o.log.Dropped(); d > 0 {
			fmt.Fprintf(w, " (+%d dropped by the %s)", d, "buffer cap")
		}
		fmt.Fprintf(w, " — advance=%d steal-hit=%d steal-miss=%d idle=%d terminate=%d\n",
			o.log.Advances(), o.log.CountKind(trace.StealHit),
			o.log.CountKind(trace.StealMiss), o.log.CountKind(trace.IdleEnter),
			o.log.CountKind(trace.Terminate))
	}
	fmt.Fprintf(w, "%-7s %12s %12s %9s %9s %9s %18s\n",
		"worker", "relax", "improve", "advances", "rounds", "hits", "tier hits near→far")
	for i := range per {
		m := &per[i]
		fmt.Fprintf(w, "%-7d %12d %12d %9d %9d %9d %8s\n",
			i, m.Relaxations, m.Improvements, m.BucketAdvances,
			m.StealRounds, m.StealHits, tierString(m.TierHits))
	}
	fmt.Fprintf(w, "%-7s %12d %12d %9d %9d %9d %8s\n",
		"total", tot.Relaxations, tot.Improvements, tot.BucketAdvances,
		tot.StealRounds, tot.StealHits, tierString(tot.TierHits))
	if tot.Relaxations > 0 {
		fmt.Fprintf(w, "useful relaxations: %.1f%% (improvements/relaxations)\n",
			100*float64(tot.Improvements)/float64(tot.Relaxations))
	}
	if tot.StealRounds > 0 {
		fmt.Fprintf(w, "steal hit rate: %.1f%% (%d hits / %d rounds)\n",
			100*float64(tot.StealHits)/float64(tot.StealRounds),
			tot.StealHits, tot.StealRounds)
	}
	if o.cfg.Timing {
		fmt.Fprintf(w, "time in steal rounds: %v, idle: %v\n",
			nsDuration(tot.StealNS), nsDuration(tot.IdleNS))
	}
	return nil
}

func tierString(t [MaxStealTiers]int64) string {
	return fmt.Sprintf("%d/%d/%d", t[0], t[1], t[2])
}

func nsDuration(ns int64) time.Duration { return time.Duration(ns) }
