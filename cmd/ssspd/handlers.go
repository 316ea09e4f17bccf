package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
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
// ?graph= value of its parsed query q, or — the single-graph
// deployment convenience — the only registered graph when exactly one
// exists.
func (s *server) resolveGraph(q url.Values) (string, error) {
	if name := q.Get("graph"); name != "" {
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
	q := r.URL.Query() // parsed once: each parse allocates about 0.4 kB
	name, err := s.resolveGraph(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	st, ok := s.reg.Status(name)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown graph %q", name), http.StatusNotFound)
		return
	}
	src, err := strconv.Atoi(q.Get("source"))
	if err != nil || src < 0 || src >= st.Vertices {
		http.Error(w, fmt.Sprintf("source must be in [0, %d)", st.Vertices), http.StatusBadRequest)
		return
	}
	var target *int
	if tq := q.Get("target"); tq != "" {
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
	name, err := s.resolveGraph(r.URL.Query())
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

// statsResponse is the daemon's one state snapshot, gathered by
// state(): /stats writes it as JSON (durations in ms) and /metrics
// renders it with writeProm. The unexported fields are what only
// /metrics shows.
type statsResponse struct {
	poolStatsJSON      // the aggregate over every graph's pool
	Draining      bool `json:"draining"`

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

	hasCkpt     bool             // a checkpoint tracker is set
	distrusted  int64            // checkpoint files renamed .bad after quarantines
	quarantines int64            // quarantine transitions since startup
	scanSkips   int64            // rescan skips of quarantined bundle files
	observed    *schedulerTotals // summed per solve in OnSolve; nil before the first observed solve
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

// add folds one graph's pool into the aggregate. Latency quantiles
// don't sum; the aggregate reports the worst serving graph.
func (a *poolStatsJSON) add(p poolStatsJSON) {
	a.Sessions += p.Sessions
	a.Idle += p.Idle
	a.InFlight += p.InFlight
	a.Queued += p.Queued
	a.Completed += p.Completed
	a.Degraded += p.Degraded
	a.Shed += p.Shed
	a.Quarantined += p.Quarantined
	a.P50MS = max(a.P50MS, p.P50MS)
	a.P99MS = max(a.P99MS, p.P99MS)
}

func (s *server) graphStats(name string) (graphStats, bool) {
	st, ok := s.reg.Status(name)
	if !ok {
		return graphStats{}, false
	}
	ps, _ := s.reg.Stats(name)
	return graphStats{GraphStatus: st, Pool: flattenPool(ps)}, true
}

// state gathers everything the daemon reports, reading each graph's
// pool once and summing the aggregate from those entries. A new
// counter goes in three places: a statsResponse field, here, and
// writeProm.
func (s *server) state() statsResponse {
	st := statsResponse{
		Draining:            s.draining.Load(),
		LastCheckpointAgeMS: -1,
		Reloads:             s.reg.ReloadStats(),
		Graphs:              map[string]graphStats{},
		quarantines:         s.reg.Quarantined(),
	}
	for _, name := range s.reg.Graphs() {
		if gs, ok := s.graphStats(name); ok {
			st.Graphs[name] = gs
			st.poolStatsJSON.add(gs.Pool)
			if gs.State == wasp.GraphQuarantined {
				st.GraphsQuarantined++
			}
		}
	}
	if s.ckpt != nil {
		st.hasCkpt = true
		st.CheckpointWrites = s.ckpt.writes.Load()
		st.LastCheckpointAgeMS = s.ckpt.ageMS()
		st.Recovered = s.ckpt.recovered.Load()
		st.RecoverySkipped = s.ckpt.skipped.Load()
		st.CheckpointWriteErrors = s.ckpt.writeErrs.Load()
		st.CheckpointWritesSkipped = s.ckpt.skippedWrites.Load()
		st.CheckpointingDisabled = s.ckpt.disabled.Load()
		st.distrusted = s.ckpt.distrusted.Load()
	}
	if s.gov != nil {
		gs := s.gov.Stats()
		st.Governor = &gs
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.Cache = &cs
	}
	if a := s.reg.Auditor(); a != nil {
		as := a.Stats()
		st.Audit = &as
	}
	if s.scrub != nil {
		ss := s.scrub.Stats()
		st.Scrub = &ss
	}
	if s.scan != nil {
		st.scanSkips = s.scan.quarantineSkips()
	}
	if s.prom != nil {
		st.observed = s.prom.observed()
	}
	return st
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
	writeJSON(w, s.state())
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
