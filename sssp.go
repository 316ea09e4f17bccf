package wasp

import (
	"context"
	"errors"
	"fmt"
	"time"

	"wasp/internal/algebra"
	"wasp/internal/baseline/bellmanford"
	"wasp/internal/baseline/dijkstra"
	"wasp/internal/baseline/gapds"
	"wasp/internal/baseline/gbbs"
	"wasp/internal/baseline/radius"
	"wasp/internal/baseline/relaxed"
	"wasp/internal/baseline/seqdelta"
	"wasp/internal/baseline/stepping"
	"wasp/internal/core"
	"wasp/internal/mbq"
	"wasp/internal/metrics"
	"wasp/internal/mq"
	"wasp/internal/numa"
	"wasp/internal/parallel"
	"wasp/internal/smq"
	"wasp/internal/trace"
)

// Algorithm selects an SSSP implementation. AlgoWasp is the paper's
// contribution; the others are the evaluation's baselines plus two
// sequential references.
type Algorithm int

const (
	// AlgoWasp is the work-stealing shortest path algorithm (paper §4).
	AlgoWasp Algorithm = iota
	// AlgoDijkstra is sequential Dijkstra with a d-ary heap (the
	// work-efficiency and correctness reference).
	AlgoDijkstra
	// AlgoBellmanFord is sequential queue-based Bellman–Ford.
	AlgoBellmanFord
	// AlgoGAP is the GAP Benchmarking Suite's synchronous Δ-stepping
	// with bucket fusion.
	AlgoGAP
	// AlgoGBBS is Δ-stepping over Julienne-style centralized buckets.
	AlgoGBBS
	// AlgoDeltaStar is Δ*-stepping (Dong et al., SPAA 2021).
	AlgoDeltaStar
	// AlgoRho is ρ-stepping (Dong et al., SPAA 2021).
	AlgoRho
	// AlgoMultiQueue is parallel Dijkstra over the MultiQueue relaxed
	// priority queue.
	AlgoMultiQueue
	// AlgoGalois is asynchronous Δ-stepping over an OBIM-style
	// priority scheduler.
	AlgoGalois
	// AlgoSMQ is parallel Dijkstra over the Stealing MultiQueue
	// (Postnikova et al., PPoPP 2022) — an extension baseline from the
	// paper's related work (§6).
	AlgoSMQ
	// AlgoMBQ is parallel Dijkstra over the Multi Bucket Queue (Zhang
	// et al., SPAA 2024) — an extension baseline from the paper's
	// related work (§6).
	AlgoMBQ
	// AlgoRadius is radius-stepping (Blelloch et al., SPAA 2016) — an
	// extension baseline from the paper's related work (§6).
	AlgoRadius
	// AlgoSeqDelta is the original sequential Δ-stepping of Meyer and
	// Sanders (2003), with the light/heavy edge split — the
	// foundational algorithm of the paper's §2.
	AlgoSeqDelta
	// AlgoAlgebraic is Δ-stepping formulated as masked (min,+)
	// semiring matrix-vector products, in the GraphBLAS style the
	// paper's §6 cites (Sridhar et al., IPDPSW 2019).
	AlgoAlgebraic

	numAlgorithms // sentinel
)

var algoNames = [numAlgorithms]string{
	"wasp", "dijkstra", "bellman-ford", "gap", "gbbs",
	"delta-star", "rho", "multiqueue", "galois", "smq", "mbq",
	"radius", "seq-delta", "algebraic",
}

// String returns the algorithm's canonical name.
func (a Algorithm) String() string {
	if a < 0 || a >= numAlgorithms {
		return "unknown"
	}
	return algoNames[a]
}

// ParseAlgorithm resolves a canonical algorithm name.
func ParseAlgorithm(name string) (Algorithm, error) {
	for i, n := range algoNames {
		if n == name {
			return Algorithm(i), nil
		}
	}
	return 0, fmt.Errorf("wasp: unknown algorithm %q (have %v)", name, Algorithms())
}

// Algorithms returns all algorithm names in declaration order.
func Algorithms() []string {
	out := make([]string, numAlgorithms)
	copy(out, algoNames[:])
	return out
}

// Parallel reports whether the algorithm uses multiple workers.
func (a Algorithm) Parallel() bool {
	return a != AlgoDijkstra && a != AlgoBellmanFord && a != AlgoSeqDelta
}

// StealPolicy selects Wasp's victim-selection strategy (paper §4.2).
type StealPolicy = core.StealPolicy

// Steal policies for Options.Steal.
const (
	// StealWasp is the paper's NUMA-tiered priority-aware protocol.
	StealWasp = core.PolicyWasp
	// StealRandom is traditional uniform random victim selection.
	StealRandom = core.PolicyRandom
	// StealTwoChoice picks the better of two random victims.
	StealTwoChoice = core.PolicyTwoChoice
)

// Topology declares a NUMA hierarchy for the steal protocol.
type Topology = numa.Topology

// Preset topologies mirroring the paper's two machines.
var (
	// TopologyEPYC is the paper's 128-core AMD EPYC 7713 layout.
	TopologyEPYC = numa.EPYC7713
	// TopologyXEON is the paper's Intel Xeon 6438Y+ layout.
	TopologyXEON = numa.XEON6438Y
)

// Options configures a Run. The zero value runs Wasp with Δ=1 and one
// worker. Every solve counts its work (Result.Metrics). The MultiQueue
// baseline's stickiness is fixed at 4, and the random steal policies
// make one attempt per steal round.
type Options struct {
	// Algorithm selects the implementation (default AlgoWasp).
	Algorithm Algorithm
	// Delta is the Δ-coarsening factor for bucketed algorithms
	// (default 1 — the paper's recommended safe choice for Wasp on
	// skewed-degree graphs).
	Delta uint32
	// Workers is the number of parallel workers (default 1). Ignored
	// by the sequential algorithms.
	Workers int
	// Rho is the per-step vertex budget for AlgoRho (default 4096).
	// AlgoRadius always precomputes balls of 8 vertices.
	Rho int

	// Steal selects Wasp's steal policy. AlgoWasp only.
	Steal StealPolicy
	// Topology declares the NUMA hierarchy for Wasp's tiered stealing.
	// The zero value sizes a small hierarchy to Workers.
	Topology Topology

	// Optimization toggles (paper §4.4, Figure 7 ablation); Theta is
	// the neighborhood-decomposition threshold θ. AlgoWasp only.
	NoLeafPruning   bool
	NoDecomposition bool
	NoBidirectional bool
	Theta           int

	// CheckpointInterval, with CheckpointSink, enables periodic
	// checkpointing on a supervised Session: every interval the running
	// solve's upper-bound state is snapshotted — workers keep running;
	// the capture is a racy-but-valid atomic copy — and handed to the
	// sink. Supervision requires the preallocated session path
	// (AlgoWasp); NewSession rejects other algorithms. One-shot
	// Run/RunContext zero it: they run unsupervised. Zero disables.
	CheckpointInterval time.Duration

	// CheckpointSink receives each periodic (and stall-forced)
	// checkpoint, synchronously from the session's supervisor
	// goroutine. The snapshot's Dist reuses one buffer per run: the
	// sink must finish with it before returning — typically by calling
	// SaveCheckpoint — or copy it.
	CheckpointSink func(*Checkpoint)

	// StallTimeout arms a stall watchdog on a supervised Session: if
	// the solve makes no relaxation progress for this long, the
	// watchdog dumps per-worker scheduler state, emits a final forced
	// checkpoint to CheckpointSink (when set), cancels the run and
	// fails it with an error wrapping ErrStalled. Zero disables.
	// One-shot Run/RunContext zero it.
	StallTimeout time.Duration

	// Observer, when non-nil, exposes the solve's scheduler internals:
	// the per-worker work counters on every algorithm (Result.Metrics
	// holds only their sum), plus the event trace (bucket advances,
	// steal outcomes per NUMA tier, idle transitions) on AlgoWasp. The
	// absent-observer hot path stays a nil check — no interface
	// dispatch, no allocation. One Observer serves one solve
	// at a time: NewSession binds it for the session's lifetime, Run
	// binds it per call, and a second concurrent user is rejected.
	// NewPool rejects it; a pool observes through PoolOptions.Observe.
	Observer *Observer

	// Verify re-checks the output against the SSSP certificate before
	// returning (O(V+E); intended for tests and examples).
	Verify bool
}

// withDefaults returns a copy of o with the cross-cutting defaults
// applied. NewSession (and through it RunContext and RunManyContext)
// and NewPool apply it before sizing anything — metrics sets and
// session preallocation must never see Workers <= 0.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Delta == 0 {
		o.Delta = 1
	}
	return o
}

// Progress quantifies how far a solve got. It matters most for
// degraded results — a deadline-expired solve hands back a partial
// upper-bound snapshot (Complete false), and Progress is what turns
// "partial" into a number a serving layer can report or alert on.
type Progress struct {
	// Settled is the fraction of vertices holding a finite tentative
	// distance at the moment the solve returned. For a complete run
	// this equals the reachable fraction; for a cancelled or
	// deadline-expired run it measures coverage of the partial
	// snapshot (the source is always settled, so it is > 0 whenever
	// the solve started).
	Settled float64
	// Reached is the number of vertices with a finite distance in Dist
	// at the moment the solve returned — the count Settled is the
	// fraction of. A serving layer reads it instead of scanning Dist.
	Reached int
	// Relaxations is the number of edge relaxations attempted, summed
	// over the per-worker counters in internal/metrics; it equals
	// Result.Metrics.Relaxations. Every solve of every algorithm fills
	// it.
	Relaxations int64
}

// Result of an SSSP run.
type Result struct {
	// Dist maps every vertex to its shortest distance from the source
	// (Infinity when unreachable).
	Dist []uint32
	// Elapsed is the cumulative wall-clock time paid for these
	// distances, excluding graph construction and verification. For a
	// warm-started solve (any Resume) it includes the prior wall time
	// the seed checkpoint had already accumulated; subtract
	// PriorElapsed for the time spent inside this process. Pool latency
	// stats and SolveObservation.Elapsed record only the in-process
	// portion.
	Elapsed time.Duration
	// PriorElapsed is the portion of Elapsed inherited from the warm
	// seed's checkpoint (zero for cold solves), so
	// Elapsed - PriorElapsed is always this solve's own wall time.
	PriorElapsed time.Duration
	// Algorithm that produced the result.
	Algorithm Algorithm
	// Metrics holds the solve's per-worker counters summed over the
	// workers. Every solve fills it, a cancelled or pre-cancelled one
	// included; it is nil only on a cache hit, where no solve ran.
	Metrics *metrics.Worker
	// Steps is the number of synchronous steps, for the synchronous
	// algorithms (0 otherwise).
	Steps int64
	// Complete reports whether the solve ran to termination. It is
	// false only when the run was cancelled (see RunContext), in which
	// case Dist is a partial snapshot: every finite entry is a valid
	// upper bound on the true distance, but not necessarily final.
	Complete bool
	// Progress quantifies coverage of Dist — see the Progress type.
	Progress Progress
}

// fillMetrics sets Metrics to the totals of the run's metrics set and
// derives Progress from them and the distance snapshot.
func (r *Result) fillMetrics(m *metrics.Set) {
	t := m.Totals()
	r.Metrics = &t
	n := 0
	for _, d := range r.Dist {
		if d != Infinity {
			n++
		}
	}
	r.Progress.Reached = n
	if len(r.Dist) > 0 {
		r.Progress.Settled = float64(n) / float64(len(r.Dist))
	}
	r.Progress.Relaxations = t.Relaxations
}

// ErrCancelled is returned (wrapped) by RunContext when the context is
// cancelled before the solve terminates. Test with errors.Is.
var ErrCancelled = errors.New("wasp: run cancelled")

// Run computes single-source shortest paths on g from source.
func Run(g *Graph, source Vertex, opt Options) (*Result, error) {
	return RunContext(context.Background(), g, source, opt)
}

// RunContext is Run with cooperative cancellation. Cancellation is
// polled at chunk, bucket, step or queue-pop boundaries — never per
// edge relaxation — so it costs nothing measurable and takes effect
// within one grain of work. When ctx is cancelled before the solve
// terminates, RunContext returns an error wrapping both ErrCancelled
// and ctx.Err() together with a non-nil partial Result: Complete is
// false and Dist holds the tentative distances at the moment the
// workers drained (finite entries are valid upper bounds). A context
// already done at entry gets the zero-work snapshot without starting
// a worker. Verify is skipped for cancelled runs, whose output is
// legitimately partial.
//
// RunContext also contains worker panics: a panic inside any parallel
// solver cancels its siblings (no deadlocked joins, no leaked
// goroutines) and surfaces as an error carrying the worker id and
// stack trace.
//
// RunContext is a Session used once: NewSession validates opt and
// binds opt.Observer, one Session.Run solves, and the observer is
// released on return. The supervision options (CheckpointInterval,
// CheckpointSink, StallTimeout) are zeroed first, so one-shot runs
// ignore them.
func RunContext(ctx context.Context, g *Graph, source Vertex, opt Options) (*Result, error) {
	opt.CheckpointInterval, opt.CheckpointSink, opt.StallTimeout = 0, nil, 0
	s, err := NewSession(g, opt)
	if err != nil {
		return nil, err
	}
	defer s.obs.release()
	return s.Run(ctx, source)
}

// warmStartSupported reports whether the option set can seed a solve
// from a prior distance array at all: warm starts are a Wasp-only
// facility (the repair scan lives in the Wasp solver). Session.Resume
// and the Registry's Mutate repair seeds consult this one helper, so no
// path can smuggle a seed past the compatibility rule.
func warmStartSupported(opt Options) error {
	if opt.Algorithm != AlgoWasp {
		return fmt.Errorf("wasp: warm start requires AlgoWasp, not %s", opt.Algorithm)
	}
	return nil
}

// coreOptions translates opt into the Wasp solver's options, with m and
// tl as the solver's collectors. NewSession builds its solver from it.
func coreOptions(opt Options, m *metrics.Set, tl *trace.Log) core.Options {
	return core.Options{
		Delta:           opt.Delta,
		Workers:         opt.Workers,
		Topology:        opt.Topology,
		Policy:          opt.Steal,
		NoLeafPruning:   opt.NoLeafPruning,
		NoDecomposition: opt.NoDecomposition,
		NoBidirectional: opt.NoBidirectional,
		Theta:           opt.Theta,
		Metrics:         m,
		Trace:           tl,
		Timing:          opt.Observer != nil && opt.Observer.cfg.Timing,
	}
}

// solveOnce runs opt.Algorithm from source on g without preallocation:
// Session.run calls it for every algorithm but AlgoWasp, which runs on
// the session's preallocated solver, and owns everything around it
// (clock, progress, metrics, observer, panics, cancellation, Verify).
// opt has defaults applied and an algorithm NewSession accepted; m is
// the session's metrics set and tok the run's cancellation token.
func solveOnce(g *Graph, source Vertex, opt Options, m *metrics.Set, tok *parallel.Token) (dist []uint32, steps int64) {
	ropt := relaxed.Options{Workers: opt.Workers, Metrics: m, Cancel: tok}
	switch opt.Algorithm {
	case AlgoDijkstra:
		r := dijkstra.RunToken(g, source, tok)
		dist = r.Dist
		m.Workers[0].Relaxations = r.Relaxations
	case AlgoBellmanFord:
		dist, m.Workers[0].Relaxations = bellmanford.RunToken(g, source, tok)
	case AlgoGAP:
		r := gapds.Run(g, source, gapds.Options{
			Delta: opt.Delta, Workers: opt.Workers, Metrics: m, Cancel: tok,
		})
		dist, steps = r.Dist, r.Steps
	case AlgoGBBS:
		r := gbbs.Run(g, source, gbbs.Options{
			Delta: opt.Delta, Workers: opt.Workers, Metrics: m, Cancel: tok,
		})
		dist, steps = r.Dist, r.Steps
	case AlgoDeltaStar:
		r := stepping.Run(g, source, stepping.Options{
			Algorithm: stepping.DeltaStar, Delta: opt.Delta,
			Workers: opt.Workers, Metrics: m, Cancel: tok,
		})
		dist, steps = r.Dist, r.Steps
	case AlgoRho:
		r := stepping.Run(g, source, stepping.Options{
			Algorithm: stepping.Rho, Rho: opt.Rho,
			Workers: opt.Workers, Metrics: m, Cancel: tok,
		})
		dist, steps = r.Dist, r.Steps
	case AlgoMultiQueue:
		dist = relaxed.RunMQ(g, source, mq.Config{}, ropt)
	case AlgoGalois:
		dist = relaxed.RunOBIM(g, source, opt.Delta, ropt)
	case AlgoSMQ:
		dist = relaxed.RunSMQ(g, source, smq.Config{}, ropt)
	case AlgoMBQ:
		dist = relaxed.RunMBQ(g, source, mbq.Config{Delta: uint64(opt.Delta)}, ropt)
	case AlgoRadius:
		r := radius.Run(g, source, radius.Options{
			Workers: opt.Workers, Metrics: m, Cancel: tok,
		})
		dist, steps = r.Dist, r.Steps
	case AlgoSeqDelta:
		r := seqdelta.Run(g, source, seqdelta.Options{Delta: opt.Delta, Cancel: tok})
		dist, steps = r.Dist, r.Buckets
		m.Workers[0].Relaxations = r.LightRelaxations + r.HeavyRelaxations
	case AlgoAlgebraic:
		r := algebra.Run(g, source, algebra.Options{
			Delta: opt.Delta, Workers: opt.Workers, Metrics: m, Cancel: tok,
		})
		dist, steps = r.Dist, r.Steps
	}
	return dist, steps
}
