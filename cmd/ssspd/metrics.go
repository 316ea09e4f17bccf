package main

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wasp"
)

// promState is the daemon's Prometheus surface: the solve-latency
// histogram and scheduler totals fed synchronously by the pool's
// OnSolve hook, and the mutation metrics fed by PATCH /graph. The
// histograms render ahead of the state() snapshot, which carries the
// scheduler totals. Everything is hand-rolled text exposition format —
// the repo takes no dependencies, and the format is small enough to
// emit (and lint, see the tests) directly.
type promState struct {
	solves promHistogram

	// Scheduler counters summed per observed solve. They live here,
	// not on any pool, so they keep counting across reloads, mutations
	// and rollbacks.
	schedMu sync.Mutex
	sched   schedulerTotals

	// Mutation-batch metrics: applied ops by MutationKind, plus an
	// update-latency histogram (apply, smoke solve and swap) over the
	// same bucket bounds as the solve histogram so the two are directly
	// comparable — the operational form of the update-vs-fresh
	// crossover question.
	mutKinds  [3]atomic.Int64
	mutations promHistogram

	slow *slowTraces
}

// defaultBuckets spans 100µs..10s — a kron solve on a laptop sits near
// the bottom, a billion-edge road graph near the top.
var defaultBuckets = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// promHistogram is a latency histogram over defaultBuckets: counts[i]
// is the number of observations ≤ defaultBuckets[i] and above the
// bound below it (cumulated at render); the last count is the +Inf
// overflow.
type promHistogram struct {
	counts [len(defaultBuckets) + 1]atomic.Int64
	sumNS  atomic.Int64
}

func (h *promHistogram) observe(d time.Duration) {
	h.counts[sort.SearchFloat64s(defaultBuckets[:], d.Seconds())].Add(1)
	h.sumNS.Add(int64(d))
}

func (h *promHistogram) write(w io.Writer, name, help string) {
	var counts [len(defaultBuckets) + 1]int64
	n := int64(0)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		n += counts[i]
	}
	writeHistogram(w, name, help, defaultBuckets[:], counts[:],
		float64(h.sumNS.Load())/float64(time.Second), n)
}

// schedulerTotals is the scheduler counters summed over observed
// solves.
type schedulerTotals struct {
	Solves        int64
	Metrics       wasp.WorkerMetrics
	DroppedEvents uint64
}

func newPromState(slowN int) *promState {
	return &promState{slow: newSlowTraces(slowN)}
}

// onMutation records one successfully applied mutation batch: the
// per-kind op counts and the end-to-end update latency.
func (p *promState) onMutation(kinds [3]int64, elapsed time.Duration) {
	for i, n := range kinds {
		p.mutKinds[i].Add(n)
	}
	p.mutations.observe(elapsed)
}

// onSolve is the pool's OnSolve hook: record the latency observation,
// fold the solve's scheduler counters into the running totals and,
// when this solve ranks among the slowest seen, capture its scheduler
// trace — all while the session (and so its Observer) is still checked
// out and quiescent.
func (p *promState) onSolve(o wasp.SolveObservation) {
	p.solves.observe(o.Elapsed)
	if o.Observer != nil {
		t, dropped := o.Observer.Totals(), o.Observer.DroppedEvents()
		p.schedMu.Lock()
		p.sched.Solves++
		p.sched.Metrics.Add(&t)
		p.sched.DroppedEvents += dropped
		p.schedMu.Unlock()
	}
	p.slow.consider(o)
}

// observed returns the scheduler totals folded in so far, or nil
// before the first observed solve.
func (p *promState) observed() *schedulerTotals {
	p.schedMu.Lock()
	defer p.schedMu.Unlock()
	if p.sched.Solves == 0 {
		return nil
	}
	t := p.sched
	return &t
}

// handleMetrics renders the Prometheus text exposition format, one
// HELP/TYPE header per family: promState's histograms and mutation
// counters, then the state() snapshot.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := s.prom
	p.solves.write(w, "ssspd_solve_duration_seconds", "Latency of pool solves, timed from session acquisition; admission wait excluded.")
	family(w, "ssspd_mutations_total", "Applied graph mutations by kind.", "counter")
	for i, kind := range []wasp.MutationKind{wasp.MutInsert, wasp.MutDelete, wasp.MutSetWeight} {
		fmt.Fprintf(w, "ssspd_mutations_total{kind=%q} %d\n", kind.String(), p.mutKinds[i].Load())
	}
	p.mutations.write(w, "ssspd_mutation_duration_seconds", "Latency of graph mutation batches: apply, smoke solve and version swap.")
	writeProm(w, s.state())
}

// writeHistogram renders one histogram family. counts[i] is the number
// of observations in bucket i alone (at or below bounds[i], above the
// bound before it); the buckets are written cumulatively and end with
// the mandatory +Inf bucket, which equals count.
func writeHistogram(w io.Writer, name, help string, bounds []float64, counts []int64, sum float64, count int64) {
	family(w, name, help, "histogram")
	cum := int64(0)
	for i, ub := range bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(ub), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, count)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(sum))
	fmt.Fprintf(w, "%s_count %d\n", name, count)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips, no exponent for the magnitudes the
// daemon produces.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// family emits one HELP/TYPE header pair.
func family(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func gauge(w io.Writer, name, help string, v float64) {
	family(w, name, help, "gauge")
	fmt.Fprintf(w, "%s %s\n", name, formatFloat(v))
}

func counter(w io.Writer, name, help string, v int64) {
	family(w, name, help, "counter")
	fmt.Fprintf(w, "%s %d\n", name, v)
}

func writeProm(w io.Writer, st statsResponse) {
	gauge(w, "ssspd_sessions", "Configured solver sessions in the pool.", float64(st.Sessions))
	gauge(w, "ssspd_sessions_idle", "Sessions currently idle.", float64(st.Idle))
	gauge(w, "ssspd_solves_in_flight", "Solves currently executing.", float64(st.InFlight))
	gauge(w, "ssspd_queue_depth", "Queries waiting for a session.", float64(st.Queued))
	drain := 0.0
	if st.Draining {
		drain = 1
	}
	gauge(w, "ssspd_draining", "1 while the daemon is draining for shutdown.", drain)

	gauge(w, "ssspd_graphs", "Graphs currently registered.", float64(len(st.Graphs)))
	if len(st.Graphs) > 0 {
		family(w, "ssspd_graph_version", "Version of each graph's actively serving deployment.", "gauge")
		for _, name := range slices.Sorted(maps.Keys(st.Graphs)) {
			fmt.Fprintf(w, "ssspd_graph_version{graph=%q} %d\n", name, st.Graphs[name].Version)
		}
	}
	family(w, "ssspd_reloads_total", "Graph reload attempts by outcome.", "counter")
	fmt.Fprintf(w, "ssspd_reloads_total{outcome=\"loaded\"} %d\n", st.Reloads.Loaded)
	fmt.Fprintf(w, "ssspd_reloads_total{outcome=\"rejected\"} %d\n", st.Reloads.Rejected)
	fmt.Fprintf(w, "ssspd_reloads_total{outcome=\"rolled_back\"} %d\n", st.Reloads.RolledBack)
	fmt.Fprintf(w, "ssspd_reloads_total{outcome=\"noop\"} %d\n", st.Reloads.Noop)
	fmt.Fprintf(w, "ssspd_reloads_total{outcome=\"mutated\"} %d\n", st.Reloads.Mutated)
	fmt.Fprintf(w, "ssspd_reloads_total{outcome=\"quarantined\"} %d\n", st.scanSkips)

	if g := st.Governor; g != nil {
		gauge(w, "ssspd_pressure", "Composite overload pressure in [0,1]: the worst of the queue-delay, queue-depth and latency components.", g.Pressure)
		gauge(w, "ssspd_pressure_queue_delay", "Queue-delay pressure component: smoothed admission wait over budget, clamped to [0,1].", g.QueueDelay)
		gauge(w, "ssspd_pressure_queue_depth", "Queue-depth pressure component: smoothed queued/capacity, clamped to [0,1].", g.QueueDepth)
		gauge(w, "ssspd_pressure_latency", "Latency pressure component: smoothed solve time over budget, clamped to [0,1] (0 when no budget is set).", g.SolveLatency)
		gauge(w, "ssspd_brownout_level", "Current brownout ladder rung: 0 none, 1 cache-only, 2 partial, 3 shed.", float64(g.Level))
		counter(w, "ssspd_brownout_transitions_total", "Brownout ladder moves in either direction.", g.Transitions)
		counter(w, "ssspd_governor_sheds_total", "Queries shed by the governor's ladder (queue-overflow sheds excluded).", g.GovernorSheds)
		gauge(w, "ssspd_retry_after_seconds", "Current adaptive Retry-After hint from queue drain rate (0: no estimate yet).", g.RetryAfter.Seconds())
	}

	counter(w, "ssspd_solves_completed_total", "Solves that ran to full completion.", st.Completed)
	counter(w, "ssspd_solves_degraded_total", "Solves that returned a partial result at deadline.", st.Degraded)
	counter(w, "ssspd_requests_shed_total", "Queries rejected by admission control.", st.Shed)
	counter(w, "ssspd_sessions_quarantined_total", "Sessions rebuilt after a contained panic.", st.Quarantined)

	gauge(w, "ssspd_quarantined", "Graphs whose active version is currently quarantined by a failed result audit.", float64(st.GraphsQuarantined))
	counter(w, "ssspd_quarantines_total", "Graph versions quarantined by failed result audits since startup.", st.quarantines)
	if a := st.Audit; a != nil {
		family(w, "ssspd_audits_total", "Sampled online result audits by outcome.", "counter")
		fmt.Fprintf(w, "ssspd_audits_total{outcome=\"passed\"} %d\n", a.Passed)
		fmt.Fprintf(w, "ssspd_audits_total{outcome=\"failed\"} %d\n", a.Failed)
		fmt.Fprintf(w, "ssspd_audits_total{outcome=\"dropped\"} %d\n", a.Dropped)
		counter(w, "ssspd_audit_failures_total", "Sampled results whose certificate did not hold against the graph.", a.Failed)
	}
	if sc := st.Scrub; sc != nil {
		counter(w, "ssspd_scrub_passes_total", "Completed integrity scrub passes.", sc.Passes)
		counter(w, "ssspd_scrub_files_total", "Checkpoint and bundle files re-decoded by the scrubber.", sc.Files)
		counter(w, "ssspd_scrub_corrupt_total", "Corrupt artifacts found: files renamed .bad plus cache entries evicted.", sc.Corrupt+sc.CacheCorrupt)
		counter(w, "ssspd_scrub_cache_entries_total", "Resident cache entries re-hashed by the scrubber.", sc.CacheEntries)
	}

	if st.hasCkpt {
		counter(w, "ssspd_checkpoints_distrusted_total", "Checkpoint files renamed .bad because their graph was quarantined.", st.distrusted)
		counter(w, "ssspd_checkpoint_writes_total", "Checkpoint files successfully written.", st.CheckpointWrites)
		counter(w, "ssspd_checkpoints_recovered_total", "Interrupted solves resumed at startup.", st.Recovered)
		counter(w, "ssspd_checkpoints_skipped_total", "Startup checkpoints dropped for an unregistered graph or a shape or content-fingerprint mismatch.", st.RecoverySkipped)
		age := st.LastCheckpointAgeMS
		if age >= 0 {
			age /= 1000
		}
		gauge(w, "ssspd_checkpoint_last_age_seconds", "Seconds since the last checkpoint write (-1: never).", age)
		counter(w, "ssspd_checkpoint_write_errors_total", "Checkpoint saves that failed after retries.", st.CheckpointWriteErrors)
		counter(w, "ssspd_checkpoint_writes_skipped_total", "Checkpoint saves skipped while checkpointing was disabled.", st.CheckpointWritesSkipped)
		disabled := 0.0
		if st.CheckpointingDisabled {
			disabled = 1
		}
		gauge(w, "ssspd_checkpoint_disabled", "1 while checkpointing is disabled in the ENOSPC degraded mode.", disabled)
	}

	if st.Cache != nil {
		writeCacheProm(w, *st.Cache)
	}

	if st.observed == nil {
		return
	}
	m := st.observed.Metrics
	counter(w, "ssspd_scheduler_solves_observed_total", "Observed pool solves summed into the scheduler counters.", st.observed.Solves)
	counter(w, "ssspd_scheduler_relaxations_total", "Edge relaxations attempted across all solves.", m.Relaxations)
	counter(w, "ssspd_scheduler_improvements_total", "Relaxations that lowered a distance.", m.Improvements)
	counter(w, "ssspd_scheduler_stale_skips_total", "Vertices skipped by the staleness check.", m.StaleSkips)
	counter(w, "ssspd_scheduler_bucket_advances_total", "Worker moves to a new local priority level.", m.BucketAdvances)
	counter(w, "ssspd_scheduler_chunks_drained_total", "64-vertex chunks fully processed.", m.ChunksDrained)
	counter(w, "ssspd_scheduler_steal_rounds_total", "Work-stealing rounds entered.", m.StealRounds)
	counter(w, "ssspd_scheduler_steal_attempts_total", "Victims inspected across steal rounds.", m.StealAttempts)
	family(w, "ssspd_scheduler_steal_hits_total",
		"Successful steals by NUMA proximity tier (0 = nearest; wasp policy only).", "counter")
	for i, h := range m.TierHits {
		fmt.Fprintf(w, "ssspd_scheduler_steal_hits_total{tier=\"%d\"} %d\n", i, h)
	}
	counter(w, "ssspd_scheduler_trace_events_dropped_total",
		"Scheduler trace events lost to the per-worker buffer cap.", int64(st.observed.DroppedEvents))
}

// writeCacheProm renders the result cache's families: the reuse
// counters, residency gauges, and the exact-hit latency histogram.
func writeCacheProm(w io.Writer, cs wasp.CacheStats) {
	counter(w, "ssspd_cache_hits_total", "Queries answered from the result cache without a solve.", cs.Hits)
	counter(w, "ssspd_cache_misses_total", "Queries that led a fresh solve.", cs.Misses)
	counter(w, "ssspd_cache_coalesced_total", "Queries merged onto an identical in-flight solve.", cs.Coalesced)
	counter(w, "ssspd_cache_evicted_total", "Cached results dropped by the LRU memory budget.", cs.Evicted)
	counter(w, "ssspd_cache_warm_starts_total", "Misses seeded from a caller-supplied checkpoint (Resume).", cs.WarmStarts)
	counter(w, "ssspd_cache_cold_starts_total", "Misses solved from scratch.", cs.ColdStarts)
	counter(w, "ssspd_cache_reuse_shed_total", "Unseeded misses shed at the cache-only brownout rung.", cs.ReuseShed)
	gauge(w, "ssspd_cache_entries", "Results currently resident in the cache.", float64(cs.Entries))
	gauge(w, "ssspd_cache_bytes", "Bytes of cached results charged against the budget.", float64(cs.Bytes))
	gauge(w, "ssspd_cache_max_bytes", "Configured cache memory budget.", float64(cs.MaxBytes))

	h := cs.HitLatency
	bounds := make([]float64, len(h.Bounds))
	for i, b := range h.Bounds {
		bounds[i] = b.Seconds()
	}
	writeHistogram(w, "ssspd_cache_hit_duration_seconds", "Serve latency of exact cache hits (lookup of the shared cached result, no copy; no solver time).",
		bounds, h.Counts, h.Sum.Seconds(), h.Count)
}

// slowTraces retains the Chrome traces and summaries of the N slowest
// solves observed so far, rendered inside the OnSolve hook while the
// observer is quiescent. Entries are kept sorted slowest-first.
type slowTraces struct {
	mu  sync.Mutex
	max int
	ent []slowEntry
}

type slowEntry struct {
	Source    wasp.Vertex   `json:"source"`
	Elapsed   time.Duration `json:"-"`
	ElapsedMS float64       `json:"elapsed_ms"`
	Complete  bool          `json:"complete"`
	Captured  time.Time     `json:"captured"`

	trace   []byte // chrome trace JSON; nil when tracing was disabled
	summary []byte
}

func newSlowTraces(max int) *slowTraces {
	return &slowTraces{max: max}
}

// consider captures o's trace when it ranks among the slowest max
// solves. The cheap rank check runs first so fast solves skip the
// render; a qualifying solve renders inside the hook's synchronous
// window — the session is still checked out, so its observer cannot be
// written to concurrently.
func (s *slowTraces) consider(o wasp.SolveObservation) {
	if s.max == 0 || o.Observer == nil {
		return
	}
	s.mu.Lock()
	qualifies := len(s.ent) < s.max || o.Elapsed > s.ent[len(s.ent)-1].Elapsed
	s.mu.Unlock()
	if !qualifies {
		return
	}

	e := slowEntry{
		Source:    o.Source,
		Elapsed:   o.Elapsed,
		ElapsedMS: float64(o.Elapsed) / float64(time.Millisecond),
		Complete:  o.Complete,
		Captured:  time.Now(),
	}
	var buf bytes.Buffer
	if err := o.Observer.WriteChromeTrace(&buf); err == nil {
		e.trace = append([]byte(nil), buf.Bytes()...)
	}
	buf.Reset()
	if err := o.Observer.WriteSummary(&buf); err == nil {
		e.summary = append([]byte(nil), buf.Bytes()...)
	}

	s.mu.Lock()
	s.ent = append(s.ent, e)
	sort.SliceStable(s.ent, func(i, j int) bool { return s.ent[i].Elapsed > s.ent[j].Elapsed })
	if len(s.ent) > s.max {
		s.ent = s.ent[:s.max]
	}
	s.mu.Unlock()
}

// index returns the retained entries, slowest first.
func (s *slowTraces) index() []slowEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]slowEntry(nil), s.ent...)
}

// handleTraces serves the slow-solve captures:
//
//	/debug/traces            JSON index, slowest first
//	/debug/traces/0          Chrome trace JSON of the slowest solve
//	/debug/traces/0/summary  its human-readable scheduler summary
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/debug/traces")
	rest = strings.Trim(rest, "/")
	ent := s.prom.slow.index()
	if rest == "" {
		writeJSON(w, ent)
		return
	}
	idxStr, kind, _ := strings.Cut(rest, "/")
	i, err := strconv.Atoi(idxStr)
	if err != nil || i < 0 || i >= len(ent) {
		http.Error(w, fmt.Sprintf("trace index must be in [0, %d)", len(ent)), http.StatusNotFound)
		return
	}
	switch kind {
	case "":
		if ent[i].trace == nil {
			http.Error(w, "tracing disabled for this capture", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(ent[i].trace)
	case "summary":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(ent[i].summary)
	default:
		http.Error(w, "unknown trace view (want /summary or nothing)", http.StatusNotFound)
	}
}

// debugRoutes builds the -debug-addr mux: pprof, the slow-solve trace
// captures, and the reload admin surface. Kept off the serving address
// so an exposed query port never leaks profiles or accepts admin
// calls.
func (s *server) debugRoutes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/traces", s.handleTraces)
	mux.HandleFunc("/debug/traces/", s.handleTraces)
	mux.HandleFunc("/admin/reload", s.handleAdminReload)
	mux.HandleFunc("/admin/rollback", s.handleAdminRollback)
	return mux
}
