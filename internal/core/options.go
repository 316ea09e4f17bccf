// Package core implements Wasp, the asynchronous work-stealing SSSP
// algorithm of D'Antonio, Mai, Tsigas and Vandierendonck (SC '25).
//
// Each worker owns a distributed bucketing structure (paper §4.1,
// Figure 3): a vector of thread-local buckets — linked lists of
// 64-vertex chunks, one list per coarsened priority level — and a
// shared "current bucket", a lock-free Chase-Lev deque holding the
// chunks of the priority level the worker is currently processing.
// Workers proceed without barriers; when a worker's current bucket
// drains it first tries to steal higher-priority chunks from other
// workers' current buckets (walking NUMA tiers near-to-far, Algorithm
// 2) and only then falls back to its own lower-priority buckets. This
// makes priority drifting an on-demand event: it happens exactly when
// no higher-priority work exists locally, which is the paper's central
// idea.
package core

import (
	"wasp/internal/metrics"
	"wasp/internal/numa"
	"wasp/internal/parallel"
	"wasp/internal/trace"
)

// StealPolicy selects the victim-selection strategy. PolicyWasp is the
// paper's contribution; the other two reproduce the §4.2 comparison
// (random stealing 36–50% slower, two-choice 27–39% slower).
type StealPolicy int

const (
	// PolicyWasp scans NUMA tiers near-to-far and steals only from
	// victims whose current priority is at least as good as the
	// thief's next local bucket (Algorithm 2).
	PolicyWasp StealPolicy = iota
	// PolicyRandom picks uniform random victims and steals whatever
	// they have, retrying up to Retries times.
	PolicyRandom
	// PolicyTwoChoice picks two random victims and steals from the one
	// with the better (lower) current priority, retrying up to Retries
	// times — the "MultiQueue-like protocol" of §4.2.
	PolicyTwoChoice
)

// String names the policy.
func (p StealPolicy) String() string {
	switch p {
	case PolicyWasp:
		return "wasp"
	case PolicyRandom:
		return "random"
	case PolicyTwoChoice:
		return "two-choice"
	default:
		return "unknown"
	}
}

// Options configures a Wasp run. The zero value is completed by
// withDefaults: Δ=1, one worker per GOMAXPROCS, all optimizations on.
type Options struct {
	// Delta is the Δ-coarsening factor: vertices map to bucket
	// ⌊dist/Δ⌋. The paper's headline property is that Δ=1 is a safe
	// choice for Wasp on skewed-degree graphs.
	Delta uint32

	// Workers is the number of concurrent workers (paper: threads).
	Workers int

	// Topology declares the NUMA hierarchy used to order steal
	// victims. Zero value: numa.ForWorkers(Workers).
	Topology numa.Topology

	// Policy selects the steal protocol; Retries bounds victim retries
	// for the random policies (ignored by PolicyWasp).
	Policy  StealPolicy
	Retries int

	// Optimization toggles (paper §4.4, ablated in Figure 7).
	// The exported fields disable, so the zero value is the OPT
	// configuration and the BASE configuration sets all three.
	NoLeafPruning   bool // LP: precomputed shortest-path-tree leaf skip
	NoDecomposition bool // ND: split neighborhoods larger than Theta
	NoBidirectional bool // BR: pull-before-push on small undirected nbhds

	// Theta is the neighborhood-decomposition threshold θ. The paper
	// uses 2^20 on billion-edge graphs; the default here is 2^12,
	// scaled with the synthetic workloads (DESIGN.md §1).
	Theta int

	// Metrics, when non-nil, receives per-worker counters. Must have
	// at least Workers entries.
	Metrics *metrics.Set

	// Timing records time spent in steal rounds and in the idle loop
	// into Metrics (the Wasp execution breakdown, the analogue of the
	// paper's Figures 1–2 for Wasp itself). Off by default: the
	// timestamps cost more than a steal round.
	Timing bool

	// Trace, when non-nil, receives scheduler transitions: steal hits,
	// contended steal misses, idle entries and terminations, plus
	// bucket advances folded into one event per run of up to 64
	// (trace.Log.Advance). Each worker flushes its pending advances as
	// it leaves the run, cancelled or not. Must be created for at least
	// Workers workers.
	Trace *trace.Log

	// Cancel, when non-nil, is polled at chunk and bucket boundaries:
	// once tripped, workers drain and Run returns a partial Result
	// with Complete unset. A non-nil token also arms panic
	// containment — a panicking worker trips the token (so siblings
	// exit instead of spinning on lost work) and the panic is recorded
	// on the token as a *parallel.PanicError.
	Cancel *parallel.Token

	// debugWorkers, when non-nil, observes the worker array before the
	// run starts. Set only by in-package tests (the fault-injection
	// watchdog uses it to dump worker state on livelock).
	debugWorkers func([]*worker)
}

const infPrio = ^uint64(0)

func (o Options) withDefaults() Options {
	if o.Delta == 0 {
		o.Delta = 1
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Topology == (numa.Topology{}) {
		o.Topology = numa.ForWorkers(o.Workers)
	}
	if o.Retries <= 0 {
		o.Retries = 1
	}
	if o.Theta <= 0 {
		o.Theta = 1 << 12
	}
	return o
}

// Result of a Wasp run.
type Result struct {
	Dist []uint32
	// Complete is false when the run was cancelled and Dist is a
	// partial (but internally consistent) snapshot: every finite entry
	// is the length of some real path, never shorter than the true
	// distance.
	Complete bool
}

// prioOf returns the coarsened priority level of distance d.
func prioOf(d uint32, delta uint32) uint64 {
	return uint64(d) / uint64(delta)
}
