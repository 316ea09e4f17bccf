// Command ssspd serves SSSP queries over named, versioned in-memory
// graphs — the overload-safe front end to the solver: each graph gets
// a fixed pool of preallocated sessions behind a bounded admission
// queue, per-query latency budgets with graceful degradation (an
// expired budget returns the partial upper-bound snapshot, flagged
// degraded, instead of an error), and SIGTERM graceful drain.
//
// Graphs come from either a single -graph/-file (served under
// -graph-name) or a -graphs directory of .wspb bundle files, rescanned
// every -rescan interval: a changed bundle is fully loaded, validated
// and smoke-solved before it atomically replaces the serving version —
// in-flight queries finish on the old version, a corrupt or invalid
// bundle is rejected with the last good version still serving, and the
// bounded version history supports explicit rollback.
//
// Endpoints:
//
//	/sssp?source=N[&target=M][&graph=G]  solve from N on G; d(M) optional
//	/healthz/live            liveness: 200 while the process runs
//	/healthz/ready           readiness: 200 while serving, 503 otherwise,
//	                         with per-graph lifecycle states
//	/stats[?graph=G]         pool depth, shed/degraded counts, p50/p99
//	/metrics                 Prometheus text exposition
//
// The -debug-addr mux additionally serves pprof, /debug/traces, and
// the reload admin surface:
//
//	POST /admin/reload[?path=F]   rescan -graphs (or load one file)
//	POST /admin/rollback?graph=G  roll G back to its previous version
//
// Overload is governed by an adaptive brownout ladder (-brownout, on
// by default): sustained pressure — smoothed queue delay, queue
// occupancy and solve latency — walks the daemon one rung at a time
// through full service, cache-only admission (hits, coalesced
// followers and checkpoint-seeded misses; other misses shed), degraded
// deadlines (-degraded-deadline), and full shedding, recovering the
// same way as pressure drains. Shed queries return 429 with an
// adaptive Retry-After computed from the queue drain rate and capped
// by -retry-after; a degraded (deadline) response is 200 with
// "degraded": true and the settled fraction, so callers can decide
// whether a partial answer is good enough. A browned-out daemon stays
// ready — /healthz/ready reports pressure and brownout level instead
// of failing the probe.
//
// With -checkpoint-dir the daemon is crash-recoverable: every
// in-flight solve is snapshotted to a per-(graph, source) file on a
// -checkpoint-interval cadence, and a restarted daemon resumes those
// solves in the background — from the last published upper-bound
// state, converging to exact distances — while serving fresh queries.
// A checkpoint whose fingerprint no longer matches its graph (the
// graph was redeployed with different content while the daemon was
// down) is skipped and removed, never a startup failure. Disk faults
// never hurt serving: transient save/read errors retry with jittered
// backoff, ENOSPC flips checkpointing into a self-healing disabled
// mode that probes its way back when space returns, and a bundle file
// that fails to load is quarantined under exponential backoff while
// the last good version keeps serving.
//
// Usage:
//
//	ssspd -graph kron -n 65536 -workers 4 -sessions 2 -deadline 50ms
//	ssspd -file road.wspg -addr :9090 -queue 16 -queue-wait 100ms
//	ssspd -graphs /var/lib/ssspd/bundles -rescan 5s -debug-addr :6060
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wasp"
)

// server is the HTTP front end over a wasp.Registry. It is constructed
// by main and by the tests; every handler is safe for concurrent use.
type server struct {
	reg      *wasp.Registry
	cache    *wasp.Cache    // nil when -cache-mb is 0
	ckpt     *ckptTracker   // nil when -checkpoint-dir is unset
	scan     *bundleScanner // nil when -graphs is unset
	prom     *promState     // /metrics state; initialized lazily by routes
	gov      *wasp.Governor // nil when -brownout=false
	scrub    *wasp.Scrubber // nil when -scrub-interval is 0
	retry    string         // static Retry-After seconds sent with 429s
	draining atomic.Bool
}

// retryAfter renders the 429 hint: the governor's adaptive estimate —
// expected queue drain time, already capped at the -retry-after
// ceiling — rounded up to whole seconds, falling back to the static
// flag value (or one second for unconfigured test servers) before the
// governor has observed a solve.
func (s *server) retryAfter() string {
	if ra := s.gov.RetryAfter(); ra > 0 {
		return strconv.Itoa(int((ra + time.Second - 1) / time.Second))
	}
	if s.retry == "" {
		return "1"
	}
	return s.retry
}

// resolveGraph picks the graph a request addresses: the explicit
// ?graph= value, or — the single-graph deployment convenience — the
// only registered graph when exactly one exists.
func (s *server) resolveGraph(r *http.Request) (string, error) {
	if name := r.URL.Query().Get("graph"); name != "" {
		return name, nil
	}
	names := s.reg.Graphs()
	switch len(names) {
	case 1:
		return names[0], nil
	case 0:
		return "", fmt.Errorf("no graphs loaded")
	default:
		return "", fmt.Errorf("multiple graphs loaded; pass graph= (one of %s)",
			strings.Join(names, ", "))
	}
}

// poolStats sums the per-graph pool counters — the aggregate the
// single-graph /stats and /metrics consumers always saw.
func (s *server) poolStats() wasp.PoolStats {
	var agg wasp.PoolStats
	for _, name := range s.reg.Graphs() {
		st, ok := s.reg.Stats(name)
		if !ok {
			continue
		}
		agg.Sessions += st.Sessions
		agg.Idle += st.Idle
		agg.InFlight += st.InFlight
		agg.Queued += st.Queued
		agg.Completed += st.Completed
		agg.Degraded += st.Degraded
		agg.Shed += st.Shed
		agg.Quarantined += st.Quarantined
		// Latency quantiles don't sum; report the worst serving graph.
		if st.P50 > agg.P50 {
			agg.P50 = st.P50
		}
		if st.P99 > agg.P99 {
			agg.P99 = st.P99
		}
	}
	return agg
}

// ckptTracker owns the daemon's checkpoint directory: the periodic
// sink writes per-(graph, source) files (ckpt-<graph>-<source>.wsck,
// atomically replaced), a refcount of in-flight queries decides when a
// completed solve's file is spent and removed, and startup recovery
// resumes whatever files a previous process left behind. All methods
// are safe for concurrent use — distinct sessions checkpoint
// concurrently, and concurrent queries may share a source.
type ckptTracker struct {
	dir string

	// probeEvery is how often a disabled tracker lets one write through
	// to probe whether the full disk has space again (default 5s; tests
	// shrink it).
	probeEvery time.Duration

	mu       sync.Mutex
	inflight map[ckptKey]int

	writes    atomic.Int64
	lastWrite atomic.Int64 // unix nanos of the last successful write; 0 = never
	recovered atomic.Int64
	skipped   atomic.Int64 // recovery files dropped for fingerprint mismatch

	writeErrs     atomic.Int64 // saves that failed after retries
	skippedWrites atomic.Int64 // saves skipped while checkpointing was disabled
	disabled      atomic.Bool  // ENOSPC degraded mode: skip writes, probe, self-heal
	lastProbe     atomic.Int64 // unix nanos of the last probe write while disabled
	distrusted    atomic.Int64 // checkpoint files renamed .bad after a quarantine
}

// distrust renames every checkpoint file of the named graph to
// <name>.bad: the graph's active version just failed a result audit,
// and snapshots produced by a solver that served wrong distances must
// never seed a future recovery. Renamed files are preserved for
// forensics and invisible to every producer/consumer glob.
func (c *ckptTracker) distrust(graph string) int {
	files, err := filepath.Glob(filepath.Join(c.dir, fmt.Sprintf("ckpt-%s-*.wsck", graph)))
	if err != nil {
		return 0
	}
	n := 0
	for _, f := range files {
		if os.Rename(f, f+".bad") == nil {
			n++
		}
	}
	if n > 0 {
		c.distrusted.Add(int64(n))
		log.Printf("quarantine: distrusted %d checkpoint(s) of graph %q (renamed .bad)", n, graph)
	}
	return n
}

type ckptKey struct {
	graph string
	src   uint32
}

func newCkptTracker(dir string) *ckptTracker {
	return &ckptTracker{
		dir:        dir,
		probeEvery: 5 * time.Second,
		inflight:   make(map[ckptKey]int),
	}
}

// retryDisk runs op up to attempts times with a jittered exponential
// backoff between tries, absorbing the transient failures disks
// actually produce (EINTR, a racing rename, a momentary IO error). It
// returns nil on the first success and the last error otherwise.
// ENOSPC short-circuits: a full disk will not empty between
// millisecond retries, and the caller handles it as a mode change, not
// a retry.
func retryDisk(attempts int, base time.Duration, op func() error) error {
	var err error
	for i := 0; i < attempts; i++ {
		if err = op(); err == nil {
			return nil
		}
		if errors.Is(err, syscall.ENOSPC) {
			return err
		}
		if i < attempts-1 {
			d := base << i
			time.Sleep(d/2 + rand.N(d))
		}
	}
	return err
}

// disabledNow reports whether this write should be skipped because
// checkpointing is in the ENOSPC-degraded mode. Every probeEvery, one
// caller is let through as a probe — its success re-enables
// checkpointing, so the mode self-heals when space returns without any
// background goroutine.
func (c *ckptTracker) disabledNow() bool {
	if !c.disabled.Load() {
		return false
	}
	now := time.Now().UnixNano()
	last := c.lastProbe.Load()
	if now-last >= int64(c.probeEvery) && c.lastProbe.CompareAndSwap(last, now) {
		return false // this caller is the probe
	}
	return true
}

// disable flips checkpointing into the degraded mode, logging the
// transition once (each subsequent skip bumps a counter instead of a
// log line — an hour of full disk must not be an hour of log spam).
func (c *ckptTracker) disable(err error) {
	c.writeErrs.Add(1)
	if !c.disabled.Swap(true) {
		c.lastProbe.Store(time.Now().UnixNano())
		log.Printf("checkpointing disabled: %v (probing every %v; re-enables when space returns)", err, c.probeEvery)
	}
}

func (c *ckptTracker) path(graph string, src uint32) string {
	return filepath.Join(c.dir, fmt.Sprintf("ckpt-%s-%d.wsck", graph, src))
}

// parseCkptName inverts path: ckpt-<graph>-<source>.wsck. The graph
// name may itself contain dashes, so the source is the suffix after
// the LAST dash.
func parseCkptName(base string) (graph string, src uint32, ok bool) {
	stem, found := strings.CutSuffix(base, ".wsck")
	if !found {
		return "", 0, false
	}
	stem, found = strings.CutPrefix(stem, "ckpt-")
	if !found {
		return "", 0, false
	}
	i := strings.LastIndexByte(stem, '-')
	if i < 0 {
		return "", 0, false
	}
	n, err := strconv.ParseUint(stem[i+1:], 10, 32)
	if err != nil {
		return "", 0, false
	}
	return stem[:i], uint32(n), true
}

// sinkFor returns the CheckpointSink bound to one graph: persist the
// snapshot under the (graph, source) file. Called synchronously from
// each session's supervisor goroutine; the atomic write-then-rename in
// SaveCheckpoint makes concurrent same-source writers harmless (last
// complete file wins, never a torn one).
//
// Checkpointing is an availability feature, so its own failures are
// never allowed to hurt serving: transient write errors retry with
// jittered backoff and then give up on this snapshot (the next
// interval tick tries again), and ENOSPC flips the tracker into a
// degraded skip-everything mode that probes its way back to enabled
// when the disk drains — queries are never failed or slowed either
// way.
func (c *ckptTracker) sinkFor(graph string) func(*wasp.Checkpoint) {
	return func(cp *wasp.Checkpoint) {
		if c.disabledNow() {
			c.skippedWrites.Add(1)
			return
		}
		err := retryDisk(3, 5*time.Millisecond, func() error {
			return wasp.SaveCheckpoint(c.path(graph, cp.Source), cp)
		})
		switch {
		case err == nil:
			if c.disabled.Swap(false) {
				// This was the probe write: space is back.
				log.Printf("checkpointing re-enabled: disk writable again")
			}
			c.writes.Add(1)
			c.lastWrite.Store(time.Now().UnixNano())
		case errors.Is(err, syscall.ENOSPC):
			c.disable(err)
		default:
			c.writeErrs.Add(1)
			log.Printf("checkpoint %s/%d: %v", graph, cp.Source, err)
		}
	}
}

// acquire registers an in-flight query for (graph, src).
func (c *ckptTracker) acquire(graph string, src uint32) {
	c.mu.Lock()
	c.inflight[ckptKey{graph, src}]++
	c.mu.Unlock()
}

// release unregisters a query. When it was the last one in flight for
// (graph, src) and the solve ran to completion, the checkpoint file is
// spent — resuming finished distances is pointless — and removed.
// Incomplete exits (degraded, cancelled, crashed later) keep the file
// so a restart can pick the work back up.
func (c *ckptTracker) release(graph string, src uint32, completed bool) {
	k := ckptKey{graph, src}
	c.mu.Lock()
	c.inflight[k]--
	last := c.inflight[k] <= 0
	if last {
		delete(c.inflight, k)
	}
	c.mu.Unlock()
	if last && completed {
		_ = os.Remove(c.path(graph, src))
	}
}

// ageMS reports milliseconds since the last successful checkpoint
// write, -1 when none has happened yet.
func (c *ckptTracker) ageMS() float64 {
	ns := c.lastWrite.Load()
	if ns == 0 {
		return -1
	}
	return float64(time.Since(time.Unix(0, ns))) / float64(time.Millisecond)
}

// recoverCheckpoints resumes every checkpoint file a previous process
// left in the directory, sequentially, through the registry's normal
// admission path. Three classes of file are dropped rather than
// retried forever, and none of them fails the daemon:
//
//   - unreadable/corrupt files (a kill can land mid-write of the
//     temporary, never of the published file — but disks lie), and
//     streams without a content fingerprint;
//   - files naming a graph that is no longer registered;
//   - files whose shape or content fingerprint mismatches their graph's
//     current version — the graph was redeployed while the daemon was
//     down, and resuming old distances onto it would be garbage.
//
// Completed recoveries remove their spent file; failed resumes keep it
// for the next restart.
func (s *server) recoverCheckpoints(ctx context.Context) {
	files, err := filepath.Glob(filepath.Join(s.ckpt.dir, "ckpt-*.wsck"))
	if err != nil || len(files) == 0 {
		return
	}
	log.Printf("recovery: %d checkpoint(s) found", len(files))
	for _, f := range files {
		graph, _, ok := parseCkptName(filepath.Base(f))
		if !ok {
			log.Printf("recovery: removing %s: unrecognized checkpoint file name", f)
			_ = os.Remove(f)
			continue
		}
		var cp *wasp.Checkpoint
		// Retry transient read failures before concluding the file is
		// garbage: recovery runs once per process, so giving up on a
		// flaky read would silently drop resumable work.
		err := retryDisk(3, 5*time.Millisecond, func() error {
			var lerr error
			cp, lerr = wasp.LoadCheckpoint(f)
			return lerr
		})
		if err != nil {
			log.Printf("recovery: removing %s: %v", f, err)
			_ = os.Remove(f)
			continue
		}
		if err := s.matchCheckpoint(graph, cp); err != nil {
			log.Printf("recovery: skipping %s: %v", f, err)
			_ = os.Remove(f)
			s.ckpt.skipped.Add(1)
			continue
		}
		s.ckpt.acquire(graph, cp.Source)
		res, err := s.reg.Resume(ctx, graph, cp)
		completed := err == nil && res != nil && res.Complete
		s.ckpt.release(graph, cp.Source, completed)
		if canon := s.ckpt.path(graph, cp.Source); completed && canon != f {
			// release removed the (graph, stored source) file; a file
			// whose name disagrees with its stored source is spent too.
			_ = os.Remove(f)
		}
		if err != nil {
			log.Printf("recovery: %s source %d: %v", graph, cp.Source, err)
			continue
		}
		s.ckpt.recovered.Add(1)
		log.Printf("recovery: %s source %d resumed from %d/%d settled, finished in %v (total %v)",
			graph, cp.Source, cp.Settled(), len(cp.Dist), res.Elapsed-cp.Elapsed, res.Elapsed)
	}
}

// matchCheckpoint verifies cp against the named graph's currently
// served shape and weight-covering content fingerprint, so a
// same-shape redeploy with different weights drops the stale file
// instead of resuming garbage distances onto the new wiring.
func (s *server) matchCheckpoint(graph string, cp *wasp.Checkpoint) error {
	st, ok := s.reg.Status(graph)
	if !ok {
		return fmt.Errorf("graph %q is not registered", graph)
	}
	return cp.Matches(st.Vertices, st.Edges, st.Directed, st.WeightFP)
}

func (s *server) routes() *http.ServeMux {
	if s.prom == nil {
		s.prom = newPromState(0)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/sssp", s.handleSSSP)
	mux.HandleFunc("/graph", s.handleGraphMutate)
	mux.HandleFunc("/healthz/live", s.handleLive)
	mux.HandleFunc("/healthz/ready", s.handleReady)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// queryResponse is the JSON body of a /sssp answer. Distance uses
// wasp.Infinity (4294967295) for an unreachable target.
type queryResponse struct {
	Graph       string  `json:"graph"`
	Source      int     `json:"source"`
	Complete    bool    `json:"complete"`
	Degraded    bool    `json:"degraded"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	Reached     int     `json:"reached"`
	Settled     float64 `json:"settled"`
	Relaxations int64   `json:"relaxations"`
	Target      *int    `json:"target,omitempty"`
	Distance    *uint32 `json:"distance,omitempty"`
}

func (s *server) handleSSSP(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	name, err := s.resolveGraph(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	st, ok := s.reg.Status(name)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown graph %q", name), http.StatusNotFound)
		return
	}
	src, err := strconv.Atoi(r.URL.Query().Get("source"))
	if err != nil || src < 0 || src >= st.Vertices {
		http.Error(w, fmt.Sprintf("source must be in [0, %d)", st.Vertices), http.StatusBadRequest)
		return
	}
	var target *int
	if tq := r.URL.Query().Get("target"); tq != "" {
		tv, err := strconv.Atoi(tq)
		if err != nil || tv < 0 || tv >= st.Vertices {
			http.Error(w, fmt.Sprintf("target must be in [0, %d)", st.Vertices), http.StatusBadRequest)
			return
		}
		target = &tv
	}

	if s.ckpt != nil {
		s.ckpt.acquire(name, uint32(src))
	}
	res, err := s.reg.Run(r.Context(), name, wasp.Vertex(src))
	if s.ckpt != nil {
		s.ckpt.release(name, uint32(src), err == nil && res != nil && res.Complete)
	}
	switch {
	case errors.Is(err, wasp.ErrOverloaded):
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, "overloaded", http.StatusTooManyRequests)
		return
	case errors.Is(err, wasp.ErrNoSuchGraph):
		http.Error(w, fmt.Sprintf("unknown graph %q", name), http.StatusNotFound)
		return
	case errors.Is(err, wasp.ErrQuarantined):
		// The graph's active version failed a result audit: no answers
		// until a reload or rollback replaces it. Other graphs serve on.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(err, wasp.ErrPoolClosed):
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	case errors.Is(err, wasp.ErrCancelled):
		// The client went away mid-solve; nobody is reading this.
		http.Error(w, "cancelled", http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	resp := queryResponse{
		Graph:       name,
		Source:      src,
		Complete:    res.Complete,
		Degraded:    !res.Complete,
		ElapsedMS:   float64(res.Elapsed) / float64(time.Millisecond),
		Reached:     res.Progress.Reached,
		Settled:     res.Progress.Settled,
		Relaxations: res.Progress.Relaxations,
	}
	if target != nil {
		// target was range-checked against the version Status reported;
		// a hot reload may have swapped in a smaller graph since.
		if *target >= len(res.Dist) {
			http.Error(w, fmt.Sprintf("target must be in [0, %d)", len(res.Dist)), http.StatusBadRequest)
			return
		}
		d := res.Dist[*target]
		resp.Target, resp.Distance = target, &d
	}
	writeJSON(w, resp)
}

// mutationRequest is the JSON body of PATCH /graph: a batch of edge
// operations applied atomically to the named graph's active version.
type mutationRequest struct {
	Mutations []mutationOp `json:"mutations"`
}

// mutationOp is one edge operation: op is "insert", "delete" or
// "set-weight"; weight is required except for deletes. Vertex ids
// decode as uint32, so a negative id or one beyond the vertex id
// range fails the body decode instead of wrapping onto another vertex.
type mutationOp struct {
	Op     string      `json:"op"`
	From   wasp.Vertex `json:"from"`
	To     wasp.Vertex `json:"to"`
	Weight *uint32     `json:"weight,omitempty"`
}

// mutationResponse reports an applied batch: the version now serving
// and what changed.
type mutationResponse struct {
	Graph     string           `json:"graph"`
	Version   uint64           `json:"version"`
	Applied   int              `json:"applied"`
	Kinds     map[string]int64 `json:"mutations"`
	Increased int              `json:"increased_arcs"`
	Decreased int              `json:"decreased_arcs"`
	Vertices  int              `json:"vertices"`
	Edges     int64            `json:"edges"`
	ElapsedMS float64          `json:"elapsed_ms"`
}

// handleGraphMutate is PATCH /graph?graph=: apply a mutation batch to
// the active version and atomically activate the successor. The whole
// reload discipline applies — the batch is validated, the mutated
// graph is smoke-solved, and a failure leaves the pre-mutation version
// serving — so the endpoint can never half-apply a batch.
func (s *server) handleGraphMutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPatch {
		w.Header().Set("Allow", http.MethodPatch)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	name, err := s.resolveGraph(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	var req mutationRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad mutation body: %v", err), http.StatusBadRequest)
		return
	}
	if len(req.Mutations) == 0 {
		http.Error(w, "empty mutation batch", http.StatusBadRequest)
		return
	}
	batch := make([]wasp.Mutation, len(req.Mutations))
	var kinds [3]int64
	for i, m := range req.Mutations {
		var kind wasp.MutationKind
		switch m.Op {
		case wasp.MutInsert.String():
			kind = wasp.MutInsert
		case wasp.MutDelete.String():
			kind = wasp.MutDelete
		case wasp.MutSetWeight.String():
			kind = wasp.MutSetWeight
		default:
			http.Error(w, fmt.Sprintf("mutation %d: unknown op %q (want insert, delete or set-weight)", i, m.Op), http.StatusBadRequest)
			return
		}
		var weight uint32
		if kind != wasp.MutDelete {
			if m.Weight == nil {
				http.Error(w, fmt.Sprintf("mutation %d: %s requires a weight", i, m.Op), http.StatusBadRequest)
				return
			}
			weight = *m.Weight
		}
		batch[i] = wasp.Mutation{Kind: kind, From: m.From, To: m.To, W: weight}
		kinds[kind]++
	}

	start := time.Now()
	version, delta, err := s.reg.Mutate(r.Context(), name, batch)
	elapsed := time.Since(start)
	switch {
	case errors.Is(err, wasp.ErrNoSuchGraph):
		http.Error(w, fmt.Sprintf("unknown graph %q", name), http.StatusNotFound)
		return
	case errors.Is(err, wasp.ErrQuarantined):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(err, wasp.ErrRegistryClosed):
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	case err != nil:
		// Malformed batch (absent edge, duplicate, out of range) or a
		// rejected successor: either way nothing changed — the caller
		// gets the reason and the pre-mutation version keeps serving.
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	s.prom.onMutation(kinds, elapsed)

	resp := mutationResponse{
		Graph:   name,
		Version: version,
		Applied: len(batch),
		Kinds: map[string]int64{
			wasp.MutInsert.String():    kinds[wasp.MutInsert],
			wasp.MutDelete.String():    kinds[wasp.MutDelete],
			wasp.MutSetWeight.String(): kinds[wasp.MutSetWeight],
		},
		Increased: delta.Increased(),
		Decreased: delta.Decreased(),
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
	if st, ok := s.reg.Status(name); ok {
		resp.Vertices, resp.Edges = st.Vertices, st.Edges
	}
	writeJSON(w, resp)
}

// handleLive is the liveness probe: the process is up and handling
// HTTP. It stays 200 through drains and reloads — restarting the
// daemon cannot help either.
func (s *server) handleLive(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

// readyResponse is the /healthz/ready body: overall readiness plus the
// per-graph lifecycle states, so an operator can tell "down" from
// "reloading graph X behind last-good serving".
type readyResponse struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
	// Pressure and Brownout expose the governor's overload state (absent
	// when -brownout=false). A browned-out daemon stays ready — it is
	// alive, shedding by design, and seconds from recovery; failing the
	// probe would dump its load onto the rest of the fleet instead.
	Pressure *float64 `json:"pressure,omitempty"`
	Brownout string   `json:"brownout,omitempty"`
	// CheckpointingDisabled is true while checkpoint writes are skipped
	// in the ENOSPC degraded mode (crash recovery is paused; serving is
	// not).
	CheckpointingDisabled bool                      `json:"checkpointing_disabled,omitempty"`
	Graphs                map[string]graphReadiness `json:"graphs"`
}

type graphReadiness struct {
	Version   uint64 `json:"version"`
	State     string `json:"state"`
	LastError string `json:"last_error,omitempty"`
}

// handleReady reports readiness with per-graph detail. The status is
// 503 only when NOTHING is servable — a graph mid-reload or degraded
// to last-good still answers queries, so it must not fail the probe.
func (s *server) handleReady(w http.ResponseWriter, _ *http.Request) {
	resp := readyResponse{
		Draining: s.draining.Load(),
		Graphs:   map[string]graphReadiness{},
	}
	if s.gov != nil {
		p := s.gov.Pressure()
		resp.Pressure = &p
		resp.Brownout = s.gov.Level().String()
	}
	if s.ckpt != nil {
		resp.CheckpointingDisabled = s.ckpt.disabled.Load()
	}
	for _, name := range s.reg.Graphs() {
		st, ok := s.reg.Status(name)
		if !ok {
			continue
		}
		resp.Graphs[name] = graphReadiness{
			Version:   st.Version,
			State:     string(st.State),
			LastError: st.LastError,
		}
	}
	resp.Ready = !resp.Draining && s.reg.Servable()
	if !resp.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, resp)
}

// statsResponse flattens the aggregate pool counters for JSON,
// durations in ms, plus the per-graph lifecycle/counter breakdown.
type statsResponse struct {
	Sessions    int     `json:"sessions"`
	Idle        int     `json:"idle"`
	InFlight    int     `json:"in_flight"`
	Queued      int     `json:"queued"`
	Completed   int64   `json:"completed"`
	Degraded    int64   `json:"degraded"`
	Shed        int64   `json:"shed"`
	Quarantined int64   `json:"quarantined"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	Draining    bool    `json:"draining"`

	// Checkpointing (zeros / -1 when -checkpoint-dir is unset).
	CheckpointWrites        int64   `json:"checkpoint_writes"`
	LastCheckpointAgeMS     float64 `json:"last_checkpoint_age_ms"` // -1: never
	Recovered               int64   `json:"recovered"`
	RecoverySkipped         int64   `json:"recovery_skipped"`
	CheckpointWriteErrors   int64   `json:"checkpoint_write_errors"`
	CheckpointWritesSkipped int64   `json:"checkpoint_writes_skipped"`
	CheckpointingDisabled   bool    `json:"checkpointing_disabled"`

	// Governor is the overload governor's state (absent when
	// -brownout=false).
	Governor *wasp.GovernorStats `json:"governor,omitempty"`

	// Cache is the result cache's counters (absent when -cache-mb=0).
	Cache *wasp.CacheStats `json:"cache,omitempty"`

	// Audit is the sampled result auditor's counters (absent when
	// -audit-sample=0).
	Audit *wasp.AuditorStats `json:"audit,omitempty"`

	// Scrub is the background integrity scrubber's counters (absent
	// when -scrub-interval=0 or there is nothing to scrub).
	Scrub *wasp.ScrubberStats `json:"scrub,omitempty"`

	// GraphsQuarantined counts graphs whose active version is currently
	// quarantined after a failed result audit.
	GraphsQuarantined int `json:"graphs_quarantined"`

	Reloads wasp.RegistryReloadStats `json:"reloads"`
	Graphs  map[string]graphStats    `json:"graphs"`
}

// graphStats is one graph's slice of /stats.
type graphStats struct {
	wasp.GraphStatus
	Pool poolStatsJSON `json:"pool"`
}

type poolStatsJSON struct {
	Sessions    int     `json:"sessions"`
	Idle        int     `json:"idle"`
	InFlight    int     `json:"in_flight"`
	Queued      int     `json:"queued"`
	Completed   int64   `json:"completed"`
	Degraded    int64   `json:"degraded"`
	Shed        int64   `json:"shed"`
	Quarantined int64   `json:"quarantined"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
}

func flattenPool(st wasp.PoolStats) poolStatsJSON {
	return poolStatsJSON{
		Sessions:    st.Sessions,
		Idle:        st.Idle,
		InFlight:    st.InFlight,
		Queued:      st.Queued,
		Completed:   st.Completed,
		Degraded:    st.Degraded,
		Shed:        st.Shed,
		Quarantined: st.Quarantined,
		P50MS:       float64(st.P50) / float64(time.Millisecond),
		P99MS:       float64(st.P99) / float64(time.Millisecond),
	}
}

func (s *server) graphStats(name string) (graphStats, bool) {
	st, ok := s.reg.Status(name)
	if !ok {
		return graphStats{}, false
	}
	ps, _ := s.reg.Stats(name)
	return graphStats{GraphStatus: st, Pool: flattenPool(ps)}, true
}

// handleStats serves the aggregate (no parameter) or one graph's
// breakdown (?graph=name).
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if name := r.URL.Query().Get("graph"); name != "" {
		gs, ok := s.graphStats(name)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown graph %q", name), http.StatusNotFound)
			return
		}
		writeJSON(w, gs)
		return
	}
	st := s.poolStats()
	resp := statsResponse{
		Sessions:            st.Sessions,
		Idle:                st.Idle,
		InFlight:            st.InFlight,
		Queued:              st.Queued,
		Completed:           st.Completed,
		Degraded:            st.Degraded,
		Shed:                st.Shed,
		Quarantined:         st.Quarantined,
		P50MS:               float64(st.P50) / float64(time.Millisecond),
		P99MS:               float64(st.P99) / float64(time.Millisecond),
		Draining:            s.draining.Load(),
		LastCheckpointAgeMS: -1,
		Reloads:             s.reg.ReloadStats(),
		Graphs:              map[string]graphStats{},
	}
	if s.ckpt != nil {
		resp.CheckpointWrites = s.ckpt.writes.Load()
		resp.LastCheckpointAgeMS = s.ckpt.ageMS()
		resp.Recovered = s.ckpt.recovered.Load()
		resp.RecoverySkipped = s.ckpt.skipped.Load()
		resp.CheckpointWriteErrors = s.ckpt.writeErrs.Load()
		resp.CheckpointWritesSkipped = s.ckpt.skippedWrites.Load()
		resp.CheckpointingDisabled = s.ckpt.disabled.Load()
	}
	if s.gov != nil {
		gs := s.gov.Stats()
		resp.Governor = &gs
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		resp.Cache = &cs
	}
	if a := s.reg.Auditor(); a != nil {
		as := a.Stats()
		resp.Audit = &as
	}
	if s.scrub != nil {
		ss := s.scrub.Stats()
		resp.Scrub = &ss
	}
	for _, name := range s.reg.Graphs() {
		if gs, ok := s.graphStats(name); ok {
			resp.Graphs[name] = gs
			if gs.State == wasp.GraphQuarantined {
				resp.GraphsQuarantined++
			}
		}
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("encode response: %v", err)
	}
}

// drain flips the server to draining (/healthz/ready 503, no new queries) and
// closes the registry within ctx: in-flight solves finish or deadline
// out.
func (s *server) drain(ctx context.Context) error {
	s.draining.Store(true)
	return s.reg.Close(ctx)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ssspd: ")
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		name      = flag.String("graph", "", "workload to generate (see graphgen -list)")
		file      = flag.String("file", "", "graph file to load (.wspg binary or text edge list)")
		graphName = flag.String("graph-name", "default", "registry name for the -graph/-file graph")
		bundleDir = flag.String("graphs", "", "directory of .wspb bundles to serve and hot-reload")
		rescan    = flag.Duration("rescan", 5*time.Second, "interval between -graphs directory rescans (0 = startup scan only)")
		n         = flag.Int("n", 1<<15, "vertex count for generated workloads")
		seed      = flag.Uint64("seed", 1, "generator seed")
		algo      = flag.String("algo", "wasp", "algorithm name")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "workers per session")
		delta     = flag.Uint("delta", 1, "Δ-coarsening factor")

		sessions  = flag.Int("sessions", 2, "concurrent solver sessions per graph (pool size)")
		queue     = flag.Int("queue", 8, "admission queue depth beyond the executing solves")
		queueWait = flag.Duration("queue-wait", 100*time.Millisecond, "max wait for a free session before shedding (0 = unbounded)")
		deadline  = flag.Duration("deadline", 0, "per-solve latency budget; expired budgets return degraded partial results (0 = none)")
		drainWait = flag.Duration("drain-timeout", 10*time.Second, "max time to drain in-flight solves on SIGTERM")
		retryIn   = flag.Duration("retry-after", 30*time.Second, "ceiling on the Retry-After hint sent with 429s (the adaptive estimate from queue drain rate stays at or under it; also the static fallback before any solve is observed, rounded up to whole seconds)")
		history   = flag.Int("history", 2, "retired graph versions retained per graph for rollback")

		brownout    = flag.Bool("brownout", true, "adaptive overload governor: degrade through cache-only admission and clamped deadlines before shedding")
		degradedDdl = flag.Duration("degraded-deadline", 50*time.Millisecond, "per-solve budget clamped onto queries while browned out (partial results, not errors)")

		ckptDir   = flag.String("checkpoint-dir", "", "persist in-flight query state here and resume it on restart")
		ckptEvery = flag.Duration("checkpoint-interval", 2*time.Second, "interval between checkpoints of each in-flight solve")
		cacheMB   = flag.Int("cache-mb", 64, "memory budget in MiB for the result cache (0 disables caching)")

		auditRate  = flag.Float64("audit-sample", 0.01, "fraction of served results certified online against the graph; failures quarantine the graph version (0 disables auditing)")
		scrubEvery = flag.Duration("scrub-interval", time.Minute, "cadence of the background integrity scrubber over checkpoints, bundles, and cache (0 disables scrubbing)")

		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof, /debug/traces and /admin on this address (off when empty; keep it private)")
		slowTraceN = flag.Int("slow-traces", 8, "retain the scheduler traces of this many slowest solves for /debug/traces")
		traceCap   = flag.Int("trace-capacity", 4096, "buffered scheduler events per worker per session (-1 disables tracing, counters stay on)")
	)
	flag.Parse()

	a, err := wasp.ParseAlgorithm(*algo)
	if err != nil {
		log.Fatal(err)
	}
	opt := wasp.Options{Algorithm: a, Workers: *workers, Delta: uint32(*delta)}
	var tracker *ckptTracker
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			log.Fatal(err)
		}
		tracker = newCkptTracker(*ckptDir)
		opt.CheckpointInterval = *ckptEvery
	}
	// Every session gets its own Observer (the counters cost a few
	// cache lines; the trace buffer is bounded by -trace-capacity), so
	// /metrics aggregates scheduler internals across the whole registry
	// and the slowest solves keep their Chrome traces for /debug/traces.
	prom := newPromState(*slowTraceN)
	// The result cache fronts every graph's pool: repeated sources are
	// answered from memory and identical concurrent queries coalesce
	// onto one solve; a new source solves cold. Hot reloads re-key and
	// invalidate atomically, so a redeployed graph never serves stale
	// distances.
	var cache *wasp.Cache
	if *cacheMB > 0 {
		cache = wasp.NewCache(wasp.CacheOptions{MaxBytes: int64(*cacheMB) << 20})
	}
	// One governor spans every graph's pool: overload is a daemon-wide
	// condition (the pools share the machine), so the brownout ladder
	// must move on aggregate pressure, not per-graph slices of it.
	var gov *wasp.Governor
	if *brownout {
		gov = wasp.NewGovernor(wasp.GovernorConfig{
			QueueDelayBudget: *queueWait,
			LatencyBudget:    *deadline,
			DegradedDeadline: *degradedDdl,
			MaxRetryAfter:    *retryIn,
			Slots:            *sessions,
			OnTransition: func(tr wasp.BrownoutTransition) {
				log.Printf("governor: brownout %s -> %s (pressure %.2f)", tr.From, tr.To, tr.Pressure)
			},
		})
	}
	// Sampled online audits: a slice of served results is re-certified
	// against the graph (full certificate for complete solves, upper
	// bound for degraded ones). A failed audit means the active version
	// served a wrong answer — the registry quarantines it, and the
	// daemon additionally distrusts that graph's checkpoints: snapshots
	// from a solver that lied must never seed a recovery.
	var audit *wasp.AuditorOptions
	if *auditRate > 0 {
		audit = &wasp.AuditorOptions{SampleRate: *auditRate, Async: true}
	}
	reg := wasp.NewRegistry(wasp.RegistryOptions{
		Options: opt,
		Cache:   cache,
		Pool: wasp.PoolOptions{
			Sessions:   *sessions,
			QueueDepth: *queue,
			QueueWait:  *queueWait,
			Deadline:   *deadline,
			Observe:    &wasp.ObserverConfig{TraceCapacity: *traceCap},
			OnSolve:    prom.onSolve,
			Governor:   gov,
		},
		History:      *history,
		DrainTimeout: *drainWait,
		Audit:        audit,
		ConfigureOptions: func(graph string, _ uint64, o wasp.Options) wasp.Options {
			if tracker != nil {
				o.CheckpointSink = tracker.sinkFor(graph)
			}
			return o
		},
		OnEvent: func(ev wasp.RegistryEvent) {
			if ev.Kind == wasp.EventQuarantined && tracker != nil {
				tracker.distrust(ev.Graph)
			}
			if ev.Err != nil {
				log.Printf("registry: %s v%d %s: %v", ev.Graph, ev.Version, ev.Kind, ev.Err)
				return
			}
			log.Printf("registry: %s v%d %s", ev.Graph, ev.Version, ev.Kind)
		},
	})

	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	retrySecs := int((*retryIn + time.Second - 1) / time.Second)
	if retrySecs < 1 {
		retrySecs = 1
	}
	s := &server{reg: reg, cache: cache, ckpt: tracker, prom: prom, gov: gov, retry: strconv.Itoa(retrySecs)}

	// Background integrity scrubber: on a jittered cadence, re-decode
	// every checkpoint and bundle file and re-hash every resident cache
	// entry, so at-rest corruption is found before a recovery or reload
	// trips over it. Corrupt files are renamed aside to .bad; corruption
	// is counted and logged, never fatal.
	if *scrubEvery > 0 && (*ckptDir != "" || *bundleDir != "" || cache != nil) {
		s.scrub = wasp.NewScrubber(wasp.ScrubberOptions{
			CheckpointDir: *ckptDir,
			BundleDir:     *bundleDir,
			Cache:         cache,
			Interval:      *scrubEvery,
			OnCorrupt: func(path string, err error) {
				if err != nil {
					log.Printf("scrub: corrupt artifact %s: %v (renamed .bad)", path, err)
					return
				}
				log.Printf("scrub: evicted corrupt %s", path)
			},
		})
		s.scrub.Start()
	}

	// Seed the registry: an explicit single graph, a bundle directory,
	// or both (the single graph serves alongside the directory's).
	if *name != "" || *file != "" {
		g, err := loadGraph(*name, *file, *n, *seed)
		if err != nil {
			log.Fatal(err)
		}
		if err := reg.LoadGraph(ctx, *graphName, g); err != nil {
			log.Fatal(err)
		}
	}
	if *bundleDir != "" {
		s.scan = newBundleScanner(reg, *bundleDir)
		loaded, rejected := s.scan.rescan(ctx)
		log.Printf("bundle scan of %s: %d loaded, %d rejected", *bundleDir, loaded, rejected)
		if *rescan > 0 {
			go s.scan.run(ctx, *rescan)
		}
	}
	if !reg.Servable() {
		log.Fatal("no graph loaded: need -graph, -file, or a -graphs directory with a valid bundle")
	}

	srv := &http.Server{Addr: *addr, Handler: s.routes()}

	// The debug surface (pprof, slow-solve traces, reload admin) binds
	// separately so the query port can face callers without leaking
	// profiles or accepting admin calls.
	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: s.debugRoutes()}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug server: %v", err)
			}
		}()
		log.Printf("debug server (pprof, traces, admin) on %s", *debugAddr)
	}

	// Resume solves a previous process left checkpointed, in the
	// background and through the normal admission path, while the
	// server is already accepting fresh queries.
	if tracker != nil {
		go s.recoverCheckpoints(ctx)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving %d graph(s) %v on %s (%d sessions × %d workers each, queue %d, deadline %v)",
		len(reg.Graphs()), reg.Graphs(), *addr, *sessions, *workers, *queue, *deadline)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (/healthz/ready flips to 503 for load
	// balancers), let in-flight requests finish or deadline out, then
	// exit 0. A second signal kills the process the default way.
	stop()
	log.Printf("signal received; draining (timeout %v)", *drainWait)
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	s.draining.Store(true)
	st := s.poolStats()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	s.scrub.Close()
	if err := reg.Close(dctx); err != nil {
		log.Printf("registry drain: %v", err)
	}
	log.Printf("drained: %d completed, %d degraded, %d shed, %d quarantined",
		st.Completed, st.Degraded, st.Shed, st.Quarantined)
}

func loadGraph(name, file string, n int, seed uint64) (*wasp.Graph, error) {
	switch {
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if strings.HasSuffix(file, ".wspg") {
			return wasp.ReadBinaryGraph(f)
		}
		return wasp.ReadTextGraph(f)
	case name != "":
		return wasp.GenerateWorkload(name, wasp.WorkloadConfig{N: n, Seed: seed})
	default:
		return nil, fmt.Errorf("need -graph or -file")
	}
}
