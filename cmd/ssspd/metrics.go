package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wasp"
)

// promState is the daemon's Prometheus surface: a solve-latency
// histogram fed synchronously by the pool's OnSolve hook, plus
// scrape-time reads of the pool gauges, checkpoint counters and the
// scheduler counters the per-session Observers accumulate. Everything
// is hand-rolled text exposition format — the repo takes no
// dependencies, and the format is small enough to emit (and lint, see
// the tests) directly.
type promState struct {
	// buckets are the histogram upper bounds in seconds, ascending.
	// counts[i] is the number of solves with latency ≤ buckets[i]
	// (non-cumulative per bucket; cumulated at render), counts[len] is
	// the +Inf overflow.
	buckets []float64
	counts  []atomic.Int64
	sumNS   atomic.Int64
	solves  atomic.Int64

	// Mutation-batch metrics: applied ops by MutationKind, plus an
	// update-latency histogram (apply, smoke solve and swap) over the
	// same bucket bounds as the solve histogram so the two are directly
	// comparable — the operational form of the update-vs-fresh
	// crossover question.
	mutKinds   [3]atomic.Int64
	mutCounts  []atomic.Int64
	mutSumNS   atomic.Int64
	mutBatches atomic.Int64

	slow *slowTraces
}

// defaultBuckets spans 100µs..10s — a kron solve on a laptop sits near
// the bottom, a billion-edge road graph near the top.
var defaultBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

func newPromState(slowN int) *promState {
	p := &promState{
		buckets:   defaultBuckets,
		counts:    make([]atomic.Int64, len(defaultBuckets)+1),
		mutCounts: make([]atomic.Int64, len(defaultBuckets)+1),
		slow:      newSlowTraces(slowN),
	}
	return p
}

// onMutation records one successfully applied mutation batch: the
// per-kind op counts and the end-to-end update latency.
func (p *promState) onMutation(kinds [3]int64, elapsed time.Duration) {
	for i, n := range kinds {
		p.mutKinds[i].Add(n)
	}
	i := sort.SearchFloat64s(p.buckets, elapsed.Seconds())
	p.mutCounts[i].Add(1)
	p.mutSumNS.Add(int64(elapsed))
	p.mutBatches.Add(1)
}

// onSolve is the pool's OnSolve hook: record the latency observation
// and, when this solve ranks among the slowest seen, capture its
// scheduler trace while the session (and so its Observer) is still
// checked out and quiescent.
func (p *promState) onSolve(o wasp.SolveObservation) {
	sec := o.Elapsed.Seconds()
	i := sort.SearchFloat64s(p.buckets, sec)
	p.counts[i].Add(1)
	p.sumNS.Add(int64(o.Elapsed))
	p.solves.Add(1)
	p.slow.consider(o)
}

// promSnapshot gathers every metric family the daemon exports. Split
// from rendering so tests can assert on values without re-parsing.
type promSnapshot struct {
	stats    wasp.PoolStats
	draining bool

	graphs  []graphSample
	reloads wasp.RegistryReloadStats

	ckptWrites        int64
	ckptAgeSec        float64 // -1: never
	ckptRecovered     int64
	ckptSkipped       int64
	ckptWriteErrs     int64
	ckptSkippedWrites int64
	ckptDisabled      bool
	hasCkpt           bool

	cache    wasp.CacheStats
	hasCache bool

	gov    wasp.GovernorStats
	hasGov bool

	audit    wasp.AuditorStats
	hasAudit bool

	scrub    wasp.ScrubberStats
	hasScrub bool

	quarantined       int64 // quarantine transitions since startup
	graphsQuarantined int   // graphs currently in the quarantined state
	ckptDistrusted    int64 // checkpoint files renamed .bad after quarantines

	scanQuarantined int64 // rescan skips of quarantined bundle files

	observed  wasp.ObserverTotals // summed over every session observer
	observers int
}

// graphSample is one graph's labeled gauge values.
type graphSample struct {
	name    string
	version uint64
}

func (s *server) snapshot() promSnapshot {
	snap := promSnapshot{
		stats:      s.poolStats(),
		draining:   s.draining.Load(),
		reloads:    s.reg.ReloadStats(),
		ckptAgeSec: -1,
	}
	for _, name := range s.reg.Graphs() {
		if st, ok := s.reg.Status(name); ok {
			snap.graphs = append(snap.graphs, graphSample{name: name, version: st.Version})
			if st.State == wasp.GraphQuarantined {
				snap.graphsQuarantined++
			}
		}
	}
	snap.quarantined = s.reg.Quarantined()
	sort.Slice(snap.graphs, func(i, j int) bool { return snap.graphs[i].name < snap.graphs[j].name })
	if s.ckpt != nil {
		snap.hasCkpt = true
		snap.ckptWrites = s.ckpt.writes.Load()
		snap.ckptRecovered = s.ckpt.recovered.Load()
		snap.ckptSkipped = s.ckpt.skipped.Load()
		snap.ckptWriteErrs = s.ckpt.writeErrs.Load()
		snap.ckptSkippedWrites = s.ckpt.skippedWrites.Load()
		snap.ckptDisabled = s.ckpt.disabled.Load()
		if ms := s.ckpt.ageMS(); ms >= 0 {
			snap.ckptAgeSec = ms / 1000
		}
	}
	if s.cache != nil {
		snap.hasCache = true
		snap.cache = s.cache.Stats()
	}
	if s.gov != nil {
		snap.hasGov = true
		snap.gov = s.gov.Stats()
	}
	if a := s.reg.Auditor(); a != nil {
		snap.hasAudit = true
		snap.audit = a.Stats()
	}
	if s.scrub != nil {
		snap.hasScrub = true
		snap.scrub = s.scrub.Stats()
	}
	if s.ckpt != nil {
		snap.ckptDistrusted = s.ckpt.distrusted.Load()
	}
	if s.scan != nil {
		snap.scanQuarantined = s.scan.quarantineSkips()
	}
	for _, obs := range s.reg.Observers() {
		c := obs.Cumulative()
		snap.observers++
		snap.observed.Solves += c.Solves
		snap.observed.DroppedEvents += c.DroppedEvents
		m := &snap.observed.Metrics
		m.Relaxations += c.Metrics.Relaxations
		m.Improvements += c.Metrics.Improvements
		m.StaleSkips += c.Metrics.StaleSkips
		m.StealAttempts += c.Metrics.StealAttempts
		m.StealHits += c.Metrics.StealHits
		m.StealRounds += c.Metrics.StealRounds
		m.ChunksDrained += c.Metrics.ChunksDrained
		m.BucketAdvances += c.Metrics.BucketAdvances
		for i := range c.Metrics.TierHits {
			m.TierHits[i] += c.Metrics.TierHits[i]
		}
	}
	return snap
}

// handleMetrics renders the Prometheus text exposition format, one
// HELP/TYPE header per family. Histogram buckets are cumulative and
// end with the mandatory +Inf bucket equal to _count.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.prom.writeHistogram(w)
	writeProm(w, s.snapshot())
}

func (p *promState) writeHistogram(w io.Writer) {
	fmt.Fprint(w, "# HELP ssspd_solve_duration_seconds Latency of pool solves, timed from session acquisition; admission wait excluded.\n")
	fmt.Fprint(w, "# TYPE ssspd_solve_duration_seconds histogram\n")
	cum := int64(0)
	for i, ub := range p.buckets {
		cum += p.counts[i].Load()
		fmt.Fprintf(w, "ssspd_solve_duration_seconds_bucket{le=%q} %d\n", formatFloat(ub), cum)
	}
	cum += p.counts[len(p.buckets)].Load()
	fmt.Fprintf(w, "ssspd_solve_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "ssspd_solve_duration_seconds_sum %s\n",
		formatFloat(float64(p.sumNS.Load())/float64(time.Second)))
	fmt.Fprintf(w, "ssspd_solve_duration_seconds_count %d\n", p.solves.Load())

	family(w, "ssspd_mutations_total", "Applied graph mutations by kind.", "counter")
	for i, kind := range []wasp.MutationKind{wasp.MutInsert, wasp.MutDelete, wasp.MutSetWeight} {
		fmt.Fprintf(w, "ssspd_mutations_total{kind=%q} %d\n", kind.String(), p.mutKinds[i].Load())
	}
	fmt.Fprint(w, "# HELP ssspd_mutation_duration_seconds Latency of graph mutation batches: apply, smoke solve and version swap.\n")
	fmt.Fprint(w, "# TYPE ssspd_mutation_duration_seconds histogram\n")
	cum = 0
	for i, ub := range p.buckets {
		cum += p.mutCounts[i].Load()
		fmt.Fprintf(w, "ssspd_mutation_duration_seconds_bucket{le=%q} %d\n", formatFloat(ub), cum)
	}
	cum += p.mutCounts[len(p.buckets)].Load()
	fmt.Fprintf(w, "ssspd_mutation_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "ssspd_mutation_duration_seconds_sum %s\n",
		formatFloat(float64(p.mutSumNS.Load())/float64(time.Second)))
	fmt.Fprintf(w, "ssspd_mutation_duration_seconds_count %d\n", p.mutBatches.Load())
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

func writeProm(w io.Writer, snap promSnapshot) {
	st := snap.stats
	gauge(w, "ssspd_sessions", "Configured solver sessions in the pool.", float64(st.Sessions))
	gauge(w, "ssspd_sessions_idle", "Sessions currently idle.", float64(st.Idle))
	gauge(w, "ssspd_solves_in_flight", "Solves currently executing.", float64(st.InFlight))
	gauge(w, "ssspd_queue_depth", "Queries waiting for a session.", float64(st.Queued))
	drain := 0.0
	if snap.draining {
		drain = 1
	}
	gauge(w, "ssspd_draining", "1 while the daemon is draining for shutdown.", drain)

	gauge(w, "ssspd_graphs", "Graphs currently registered.", float64(len(snap.graphs)))
	if len(snap.graphs) > 0 {
		family(w, "ssspd_graph_version", "Version of each graph's actively serving deployment.", "gauge")
		for _, g := range snap.graphs {
			fmt.Fprintf(w, "ssspd_graph_version{graph=%q} %d\n", g.name, g.version)
		}
	}
	family(w, "ssspd_reloads_total", "Graph reload attempts by outcome.", "counter")
	fmt.Fprintf(w, "ssspd_reloads_total{outcome=\"loaded\"} %d\n", snap.reloads.Loaded)
	fmt.Fprintf(w, "ssspd_reloads_total{outcome=\"rejected\"} %d\n", snap.reloads.Rejected)
	fmt.Fprintf(w, "ssspd_reloads_total{outcome=\"rolled_back\"} %d\n", snap.reloads.RolledBack)
	fmt.Fprintf(w, "ssspd_reloads_total{outcome=\"noop\"} %d\n", snap.reloads.Noop)
	fmt.Fprintf(w, "ssspd_reloads_total{outcome=\"mutated\"} %d\n", snap.reloads.Mutated)
	fmt.Fprintf(w, "ssspd_reloads_total{outcome=\"quarantined\"} %d\n", snap.scanQuarantined)

	if snap.hasGov {
		g := snap.gov
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

	gauge(w, "ssspd_quarantined", "Graphs whose active version is currently quarantined by a failed result audit.", float64(snap.graphsQuarantined))
	counter(w, "ssspd_quarantines_total", "Graph versions quarantined by failed result audits since startup.", snap.quarantined)
	if snap.hasAudit {
		a := snap.audit
		family(w, "ssspd_audits_total", "Sampled online result audits by outcome.", "counter")
		fmt.Fprintf(w, "ssspd_audits_total{outcome=\"passed\"} %d\n", a.Passed)
		fmt.Fprintf(w, "ssspd_audits_total{outcome=\"failed\"} %d\n", a.Failed)
		fmt.Fprintf(w, "ssspd_audits_total{outcome=\"dropped\"} %d\n", a.Dropped)
		counter(w, "ssspd_audit_failures_total", "Sampled results whose certificate did not hold against the graph.", a.Failed)
	}
	if snap.hasScrub {
		sc := snap.scrub
		counter(w, "ssspd_scrub_passes_total", "Completed integrity scrub passes.", sc.Passes)
		counter(w, "ssspd_scrub_files_total", "Checkpoint and bundle files re-decoded by the scrubber.", sc.Files)
		counter(w, "ssspd_scrub_corrupt_total", "Corrupt artifacts found: files renamed .bad plus cache entries evicted.", sc.Corrupt+sc.CacheCorrupt)
		counter(w, "ssspd_scrub_cache_entries_total", "Resident cache entries re-hashed by the scrubber.", sc.CacheEntries)
	}
	if snap.hasCkpt {
		counter(w, "ssspd_checkpoints_distrusted_total", "Checkpoint files renamed .bad because their graph was quarantined.", snap.ckptDistrusted)
	}

	if snap.hasCkpt {
		counter(w, "ssspd_checkpoint_writes_total", "Checkpoint files successfully written.", snap.ckptWrites)
		counter(w, "ssspd_checkpoints_recovered_total", "Interrupted solves resumed at startup.", snap.ckptRecovered)
		counter(w, "ssspd_checkpoints_skipped_total", "Startup checkpoints dropped for fingerprint mismatch.", snap.ckptSkipped)
		gauge(w, "ssspd_checkpoint_last_age_seconds", "Seconds since the last checkpoint write (-1: never).", snap.ckptAgeSec)
		counter(w, "ssspd_checkpoint_write_errors_total", "Checkpoint saves that failed after retries.", snap.ckptWriteErrs)
		counter(w, "ssspd_checkpoint_writes_skipped_total", "Checkpoint saves skipped while checkpointing was disabled.", snap.ckptSkippedWrites)
		disabled := 0.0
		if snap.ckptDisabled {
			disabled = 1
		}
		gauge(w, "ssspd_checkpoint_disabled", "1 while checkpointing is disabled in the ENOSPC degraded mode.", disabled)
	}

	if snap.hasCache {
		writeCacheProm(w, snap.cache)
	}

	if snap.observers == 0 {
		return
	}
	m := snap.observed.Metrics
	counter(w, "ssspd_scheduler_solves_observed_total", "Solves absorbed by the session observers.", snap.observed.Solves)
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
		"Scheduler trace events lost to the per-worker buffer cap.", int64(snap.observed.DroppedEvents))
}

// writeCacheProm renders the result cache's families: the reuse
// counters, residency gauges, and the exact-hit latency histogram
// (cumulative buckets ending in the mandatory +Inf, as Prometheus
// requires).
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

	fmt.Fprint(w, "# HELP ssspd_cache_hit_duration_seconds Serve latency of exact cache hits (copy-and-return; no solver time).\n")
	fmt.Fprint(w, "# TYPE ssspd_cache_hit_duration_seconds histogram\n")
	h := cs.HitLatency
	cum := int64(0)
	for i, ub := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(w, "ssspd_cache_hit_duration_seconds_bucket{le=%q} %d\n", formatFloat(ub.Seconds()), cum)
	}
	if len(h.Counts) > len(h.Bounds) {
		cum += h.Counts[len(h.Bounds)]
	}
	fmt.Fprintf(w, "ssspd_cache_hit_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "ssspd_cache_hit_duration_seconds_sum %s\n", formatFloat(h.Sum.Seconds()))
	fmt.Fprintf(w, "ssspd_cache_hit_duration_seconds_count %d\n", h.Count)
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
