package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wasp"
)

// newObservedServer builds a server the way main does: per-session
// observers, the OnSolve latency/trace hook, and a promState behind
// /metrics.
func newObservedServer(t *testing.T, slowN int) (*server, *httptest.Server) {
	t.Helper()
	g, err := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	prom := newPromState(slowN)
	cache := wasp.NewCache(wasp.CacheOptions{})
	reg := newRegistry(t, "kron", g, wasp.RegistryOptions{
		Options: wasp.Options{Workers: 2, Delta: 4},
		Pool: wasp.PoolOptions{
			Sessions: 2,
			Observe:  &wasp.ObserverConfig{},
			OnSolve:  prom.onSolve,
		},
		Cache: cache,
	})
	s := &server{reg: reg, prom: prom, cache: cache}
	return s, newHTTPServer(t, s)
}

// --- a promtool-style lint for the text exposition format, in Go ---
//
// check(content) enforces the subset of the Prometheus text format
// spec the daemon emits: metric/label name grammar, HELP/TYPE pairing
// and ordering, float-parseable values, no duplicate series, and for
// histograms the cumulative-bucket and +Inf == _count invariants.

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	sampleRe    = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
)

type promFamily struct {
	typ     string
	hasHelp bool
	samples map[string]float64 // full series (name{labels}) → value
}

func lintPromText(t *testing.T, body string) map[string]*promFamily {
	t.Helper()
	families, err := lintProm(body)
	if err != nil {
		t.Fatalf("prometheus text format lint: %v", err)
	}
	return families
}

func lintProm(body string) (map[string]*promFamily, error) {
	families := map[string]*promFamily{}
	fam := func(name string) *promFamily {
		f, ok := families[name]
		if !ok {
			f = &promFamily{samples: map[string]float64{}}
			families[name] = f
		}
		return f
	}
	// base strips the histogram suffixes so samples attach to the
	// declared family.
	base := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if bn := strings.TrimSuffix(name, suf); bn != name && families[bn] != nil {
				return bn
			}
		}
		return name
	}

	for ln, line := range strings.Split(body, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || !promNameRe.MatchString(parts[0]) || parts[1] == "" {
				return nil, fmt.Errorf("line %d: malformed HELP: %q", lineNo, line)
			}
			f := fam(parts[0])
			if f.hasHelp {
				return nil, fmt.Errorf("line %d: duplicate HELP for %s", lineNo, parts[0])
			}
			f.hasHelp = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 || !promNameRe.MatchString(parts[0]) {
				return nil, fmt.Errorf("line %d: malformed TYPE: %q", lineNo, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown type %q", lineNo, parts[1])
			}
			f := fam(parts[0])
			if f.typ != "" {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, parts[0])
			}
			if len(f.samples) > 0 {
				return nil, fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, parts[0])
			}
			f.typ = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("line %d: unparseable sample: %q", lineNo, line)
		}
		name, labels, value := m[1], m[3], m[4]
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: value %q: %v", lineNo, value, err)
		}
		if labels != "" {
			for _, pair := range strings.Split(labels, ",") {
				k, lv, ok := strings.Cut(pair, "=")
				if !ok || !promLabelRe.MatchString(k) ||
					len(lv) < 2 || lv[0] != '"' || lv[len(lv)-1] != '"' {
					return nil, fmt.Errorf("line %d: malformed label %q", lineNo, pair)
				}
			}
		}
		f := families[base(name)]
		if f == nil || f.typ == "" {
			return nil, fmt.Errorf("line %d: sample %s without a preceding TYPE", lineNo, name)
		}
		series := name
		if labels != "" {
			series += "{" + labels + "}"
		}
		if _, dup := f.samples[series]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, series)
		}
		f.samples[series] = v
	}

	for name, f := range families {
		if !f.hasHelp || f.typ == "" {
			return nil, fmt.Errorf("family %s missing HELP or TYPE", name)
		}
		if f.typ == "histogram" {
			if err := lintHistogram(name, f); err != nil {
				return nil, err
			}
		}
	}
	return families, nil
}

func lintHistogram(name string, f *promFamily) error {
	count, okC := f.samples[name+"_count"]
	_, okS := f.samples[name+"_sum"]
	inf, okI := f.samples[name+`_bucket{le="+Inf"}`]
	if !okC || !okS || !okI {
		return fmt.Errorf("histogram %s missing _count/_sum/+Inf bucket", name)
	}
	if inf != count {
		return fmt.Errorf("histogram %s: +Inf bucket %v != count %v", name, inf, count)
	}
	// Buckets must be cumulative: pairwise non-decreasing in le.
	type b struct{ le, v float64 }
	var bs []b
	for series, v := range f.samples {
		if !strings.HasPrefix(series, name+`_bucket{le="`) {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(series, name+`_bucket{le="`), `"}`)
		if le == "+Inf" {
			continue
		}
		fv, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return fmt.Errorf("histogram %s: bad le %q", name, le)
		}
		bs = append(bs, b{fv, v})
	}
	for i := range bs {
		for j := range bs {
			if bs[i].le < bs[j].le && bs[i].v > bs[j].v {
				return fmt.Errorf("histogram %s: bucket le=%v count %v exceeds le=%v count %v",
					name, bs[i].le, bs[i].v, bs[j].le, bs[j].v)
			}
		}
		if bs[i].v > count {
			return fmt.Errorf("histogram %s: bucket %v exceeds count", name, bs[i].le)
		}
	}
	return nil
}

// TestMetricsEndpoint: /metrics is lint-clean and its values reflect
// the solves that actually ran — the latency histogram counts them,
// the pool counters match /stats, and the scheduler counters aggregate
// the per-session observers.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newObservedServer(t, 4)

	const solves = 5
	for i := 0; i < solves; i++ {
		getJSON(t, fmt.Sprintf("%s/sssp?source=%d", ts.URL, i), http.StatusOK, nil)
	}
	// A repeat query is a cache hit: it must show up in the cache
	// families and nowhere in the solver-side counters.
	getJSON(t, ts.URL+"/sssp?source=0", http.StatusOK, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	families := lintPromText(t, string(body))

	get := func(series string) float64 {
		t.Helper()
		for _, f := range families {
			if v, ok := f.samples[series]; ok {
				return v
			}
		}
		t.Fatalf("series %s not exported:\n%s", series, body)
		return 0
	}
	if got := get("ssspd_solve_duration_seconds_count"); got != solves {
		t.Fatalf("histogram count %v, want %d", got, solves)
	}
	if got := get("ssspd_solves_completed_total"); got != solves {
		t.Fatalf("completed %v, want %d", got, solves)
	}
	if get("ssspd_scheduler_relaxations_total") <= 0 {
		t.Fatal("scheduler relaxations not aggregated from session observers")
	}
	if got := get("ssspd_scheduler_solves_observed_total"); got != solves {
		t.Fatalf("observed solves %v, want %d", got, solves)
	}
	if get("ssspd_sessions") != 2 {
		t.Fatal("sessions gauge wrong")
	}
	for tier := 0; tier < wasp.MaxStealTiers; tier++ {
		get(fmt.Sprintf(`ssspd_scheduler_steal_hits_total{tier="%d"}`, tier))
	}
	if get("ssspd_solve_duration_seconds_sum") <= 0 {
		t.Fatal("latency sum empty")
	}
	if got := get(`ssspd_graph_version{graph="kron"}`); got != 1 {
		t.Fatalf("graph version gauge %v, want 1", got)
	}
	if got := get(`ssspd_reloads_total{outcome="loaded"}`); got != 1 {
		t.Fatalf("reloads loaded %v, want 1", got)
	}
	if got := get(`ssspd_reloads_total{outcome="rejected"}`); got != 0 {
		t.Fatalf("reloads rejected %v, want 0", got)
	}

	// Cache families: one hit (the repeat), solves misses, and the
	// hit-latency histogram counting exactly the hits. The solver-side
	// counters above staying at `solves` is the other half of the
	// contract — hits never reach a session.
	if got := get("ssspd_cache_hits_total"); got != 1 {
		t.Fatalf("cache hits %v, want 1", got)
	}
	if got := get("ssspd_cache_misses_total"); got != solves {
		t.Fatalf("cache misses %v, want %d", got, solves)
	}
	if got := get("ssspd_cache_entries"); got != solves {
		t.Fatalf("cache entries %v, want %d", got, solves)
	}
	if get("ssspd_cache_bytes") <= 0 || get("ssspd_cache_max_bytes") <= 0 {
		t.Fatal("cache size gauges empty")
	}
	if got := get("ssspd_cache_hit_duration_seconds_count"); got != 1 {
		t.Fatalf("cache hit histogram count %v, want 1", got)
	}

	// /stats carries the same snapshot as JSON.
	var st struct {
		Cache *wasp.CacheStats `json:"cache"`
	}
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if st.Cache == nil || st.Cache.Hits != 1 || st.Cache.Misses != solves {
		t.Fatalf("/stats cache = %+v, want 1 hit / %d misses", st.Cache, solves)
	}
}

// TestMetricsSchedulerCountersSurviveRedeploy: the scheduler counters
// are summed per solve in OnSolve, and the pool counters are kept per
// graph, so a reload, a mutation and a rollback, each of which swaps in
// a fresh pool, never move them backwards, and every observed solve
// counts once, exactly as the latency histogram and
// ssspd_solves_completed_total count it.
func TestMetricsSchedulerCountersSurviveRedeploy(t *testing.T) {
	s, ts := newObservedServer(t, 0)
	ctx := context.Background()
	scrape := func() map[string]float64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		series := map[string]float64{}
		for _, f := range lintPromText(t, string(body)) {
			maps.Copy(series, f.samples)
		}
		return series
	}
	var solves, relax, completed float64
	check := func(step string, wantSolves float64) {
		t.Helper()
		m := scrape()
		gotSolves, gotRelax := m["ssspd_scheduler_solves_observed_total"], m["ssspd_scheduler_relaxations_total"]
		gotCompleted := m["ssspd_solves_completed_total"]
		if gotSolves < solves || gotRelax < relax || gotCompleted < completed {
			t.Fatalf("%s: solves %v -> %v, relaxations %v -> %v, completed %v -> %v: a counter dropped",
				step, solves, gotSolves, relax, gotRelax, completed, gotCompleted)
		}
		if gotSolves != wantSolves {
			t.Fatalf("%s: %v solves observed, want %v", step, gotSolves, wantSolves)
		}
		if hist := m["ssspd_solve_duration_seconds_count"]; gotSolves != hist {
			t.Fatalf("%s: %v solves observed, latency histogram counts %v", step, gotSolves, hist)
		}
		if gotCompleted != gotSolves {
			t.Fatalf("%s: %v solves completed, %v observed", step, gotCompleted, gotSolves)
		}
		solves, relax, completed = gotSolves, gotRelax, gotCompleted
	}
	next := 2 // sources 0 and 1 go to the concurrent pair below
	solve := func() {
		t.Helper()
		getJSON(t, fmt.Sprintf("%s/sssp?source=%d", ts.URL, next), http.StatusOK, nil)
		next++ // a fresh source every time: a miss on any version
	}

	// Both sessions fold a solve in at once while /metrics reads the
	// totals, then a third solve follows.
	var wg sync.WaitGroup
	for src := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/sssp?source=%d", ts.URL, src))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("source %d: status %d", src, resp.StatusCode)
			}
		}()
	}
	for range 3 {
		scrape()
	}
	wg.Wait()
	solve()
	check("first solves", 3)
	if relax <= 0 {
		t.Fatal("no relaxations summed")
	}

	g2, err := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 4000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var from wasp.Vertex
	for g2.OutDegree(from) == 0 {
		from++
	}
	to, w := g2.OutNeighbors(from)
	steps := []struct {
		name string
		do   func() error
	}{
		{"reload", func() error { return s.reg.LoadGraph(ctx, "kron", g2) }},
		{"mutation", func() error {
			body := fmt.Sprintf(`{"mutations":[{"op":"set-weight","from":%d,"to":%d,"weight":%d}]}`, from, to[0], w[0]+1)
			if code, resp := patchJSON(t, ts.URL+"/graph?graph=kron", body); code != http.StatusOK {
				return fmt.Errorf("PATCH /graph: status %d: %s", code, resp)
			}
			return nil
		}},
		{"rollback", func() error { _, err := s.reg.Rollback(ctx, "kron"); return err }},
	}
	for _, st := range steps {
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		check(st.name, solves)
		solve()
		check("solve after "+st.name, solves+1)
	}
}

// TestMetricsWithoutObservers: a bare server (no Observe config, the
// tests' default) still serves lint-clean pool metrics — the scheduler
// families are simply absent.
func TestMetricsWithoutObservers(t *testing.T) {
	_, ts := newTestServer(t, wasp.PoolOptions{Sessions: 1})
	getJSON(t, ts.URL+"/sssp?source=0", http.StatusOK, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	families := lintPromText(t, string(body))
	if _, ok := families["ssspd_scheduler_relaxations_total"]; ok {
		t.Fatal("scheduler families exported without observers")
	}
	if _, ok := families["ssspd_cache_hits_total"]; ok {
		t.Fatal("cache families exported without a cache")
	}
	if _, ok := families["ssspd_sessions"]; !ok {
		t.Fatal("pool gauges missing")
	}
}

// TestSlowTraceCapture: the debug mux serves the slowest solves'
// Chrome traces and summaries, index sorted slowest-first, and pprof
// is mounted.
func TestSlowTraceCapture(t *testing.T) {
	s, _ := newObservedServer(t, 3)
	dbg := httptest.NewServer(s.debugRoutes())
	defer dbg.Close()

	// Run more solves than the capture retains.
	for i := 0; i < 6; i++ {
		if _, err := s.reg.Run(t.Context(), "kron", wasp.Vertex(i)); err != nil {
			t.Fatal(err)
		}
	}

	var index []slowEntry
	getJSON(t, dbg.URL+"/debug/traces", http.StatusOK, &index)
	if len(index) != 3 {
		t.Fatalf("index has %d entries, want 3", len(index))
	}
	for i := 1; i < len(index); i++ {
		if index[i].ElapsedMS > index[i-1].ElapsedMS {
			t.Fatalf("index not sorted slowest-first: %v then %v",
				index[i-1].ElapsedMS, index[i].ElapsedMS)
		}
	}

	resp, err := http.Get(dbg.URL + "/debug/traces/0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace 0: status %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace 0 is not valid chrome JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace 0 has no events")
	}

	sresp, err := http.Get(dbg.URL + "/debug/traces/0/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	sum, _ := io.ReadAll(sresp.Body)
	if !strings.Contains(string(sum), "scheduler summary") {
		t.Fatalf("summary body: %q", sum)
	}

	if resp, err := http.Get(dbg.URL + "/debug/traces/9"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("out-of-range trace index: %v %v", resp.Status, err)
	}
	if resp, err := http.Get(dbg.URL + "/debug/pprof/cmdline"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof not mounted: %v %v", resp.Status, err)
	}
}

// TestLintRejectsMalformed: the lint itself must catch broken output —
// run it against corrupted documents.
func TestLintRejectsMalformed(t *testing.T) {
	bad := []struct{ name, body string }{
		{"sample-before-type", "ssspd_x_total 1\n"},
		{"bad-value", "# HELP ssspd_x_total x.\n# TYPE ssspd_x_total counter\nssspd_x_total one\n"},
		{"duplicate-series", "# HELP ssspd_x_total x.\n# TYPE ssspd_x_total counter\nssspd_x_total 1\nssspd_x_total 2\n"},
		{"bad-type", "# HELP ssspd_x_total x.\n# TYPE ssspd_x_total countr\nssspd_x_total 1\n"},
		{"bad-label", "# HELP ssspd_x_total x.\n# TYPE ssspd_x_total counter\nssspd_x_total{9tier=\"0\"} 1\n"},
		{"histogram-no-inf", "# HELP ssspd_h h.\n# TYPE ssspd_h histogram\nssspd_h_bucket{le=\"1\"} 1\nssspd_h_sum 1\nssspd_h_count 1\n"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := lintProm(tc.body); err == nil {
				t.Fatalf("lint accepted malformed input:\n%s", tc.body)
			}
		})
	}
}

// TestMetricsResilienceFamilies: a server with the governor and the
// checkpoint tracker wired exports the overload/brownout and
// disk-degradation families, lint-clean, with sane initial values.
func TestMetricsResilienceFamilies(t *testing.T) {
	g := wasp.FromEdges(4, true, []wasp.Edge{
		{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 2},
	})
	gov := wasp.NewGovernor(wasp.GovernorConfig{Slots: 1})
	cache := wasp.NewCache(wasp.CacheOptions{})
	reg := newRegistry(t, "test", g, wasp.RegistryOptions{
		Options: wasp.Options{Workers: 2},
		Cache:   cache,
		Pool:    wasp.PoolOptions{Sessions: 1, Governor: gov},
	})
	s := &server{reg: reg, cache: cache, gov: gov, ckpt: newCkptTracker(t.TempDir())}
	ts := newHTTPServer(t, s)

	getJSON(t, ts.URL+"/sssp?source=0", http.StatusOK, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	families := lintPromText(t, string(body))
	get := func(series string) float64 {
		t.Helper()
		for _, f := range families {
			if v, ok := f.samples[series]; ok {
				return v
			}
		}
		t.Fatalf("series %s not exported:\n%s", series, body)
		return 0
	}

	// Governor families: one healthy solve means pressure is present
	// (any clamped value), the ladder sits at rung 0, nothing shed.
	if p := get("ssspd_pressure"); p < 0 || p > 1 {
		t.Fatalf("ssspd_pressure = %v, want [0,1]", p)
	}
	get("ssspd_pressure_queue_delay")
	get("ssspd_pressure_queue_depth")
	get("ssspd_pressure_latency")
	if got := get("ssspd_brownout_level"); got != 0 {
		t.Fatalf("ssspd_brownout_level = %v, want 0", got)
	}
	if got := get("ssspd_brownout_transitions_total"); got != 0 {
		t.Fatalf("brownout transitions %v, want 0", got)
	}
	if got := get("ssspd_governor_sheds_total"); got != 0 {
		t.Fatalf("governor sheds %v, want 0", got)
	}
	if ra := get("ssspd_retry_after_seconds"); ra <= 0 {
		t.Fatalf("retry-after hint %v, want > 0 after a solve", ra)
	}

	// Disk-degradation families: enabled, no errors, nothing skipped.
	if got := get("ssspd_checkpoint_write_errors_total"); got != 0 {
		t.Fatalf("checkpoint write errors %v, want 0", got)
	}
	if got := get("ssspd_checkpoint_writes_skipped_total"); got != 0 {
		t.Fatalf("checkpoint writes skipped %v, want 0", got)
	}
	if got := get("ssspd_checkpoint_disabled"); got != 0 {
		t.Fatalf("checkpoint disabled gauge %v, want 0", got)
	}

	// Scanner quarantine outcome: present even with no scanner faults.
	if got := get(`ssspd_reloads_total{outcome="quarantined"}`); got != 0 {
		t.Fatalf("quarantined reloads %v, want 0", got)
	}
	// Cache reuse-shed counter: present, zero while the ladder is full.
	if got := get("ssspd_cache_reuse_shed_total"); got != 0 {
		t.Fatalf("cache reuse sheds %v, want 0", got)
	}
}

// TestMetricsStateGolden pins the daemon's reporting surface on a
// server wired as main wires it — cache, governor, checkpoint tracker,
// a synchronous auditor, scrubber, per-session observers and two
// graphs — after a few queries (one a cache hit) and one mutation: the
// ordered metric families of /metrics, the ordered top-level keys of
// /stats, /stats?graph= and /healthz/ready, and that /stats and
// /metrics report the same counters.
func TestMetricsStateGolden(t *testing.T) {
	const n = 64
	edges := make([]wasp.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, wasp.Edge{From: wasp.Vertex(i), To: wasp.Vertex(i + 1), W: 1})
	}
	g := wasp.FromEdges(n, true, edges)

	tracker := newCkptTracker(t.TempDir())
	prom := newPromState(2)
	cache := wasp.NewCache(wasp.CacheOptions{})
	gov := wasp.NewGovernor(wasp.GovernorConfig{Slots: 2})
	reg := wasp.NewRegistry(wasp.RegistryOptions{
		Options: wasp.Options{Workers: 2, CheckpointInterval: 2 * time.Second},
		Cache:   cache,
		Pool: wasp.PoolOptions{
			Sessions: 2,
			Observe:  &wasp.ObserverConfig{},
			OnSolve:  prom.onSolve,
			Governor: gov,
		},
		History: 2,
		Audit:   &wasp.AuditorOptions{SampleRate: 1},
		ConfigureOptions: func(graph string, _ uint64, o wasp.Options) wasp.Options {
			o.CheckpointSink = tracker.sinkFor(graph)
			return o
		},
		OnEvent: func(ev wasp.RegistryEvent) {
			if ev.Kind == wasp.EventQuarantined {
				tracker.distrust(ev.Graph)
			}
		},
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = reg.Close(ctx)
	})
	for _, name := range []string{"alpha", "beta"} {
		if err := reg.LoadGraph(context.Background(), name, g); err != nil {
			t.Fatal(err)
		}
	}
	scrub := wasp.NewScrubber(wasp.ScrubberOptions{CheckpointDir: tracker.dir, Cache: cache})
	t.Cleanup(scrub.Close)
	s := &server{reg: reg, cache: cache, ckpt: tracker, prom: prom, gov: gov, scrub: scrub}
	ts := newHTTPServer(t, s)

	getJSON(t, ts.URL+"/sssp?graph=alpha&source=0&target=9", http.StatusOK, nil)
	getJSON(t, ts.URL+"/sssp?graph=alpha&source=0&target=9", http.StatusOK, nil) // the cache hit
	getJSON(t, ts.URL+"/sssp?graph=beta&source=1", http.StatusOK, nil)
	if code, body := patchJSON(t, ts.URL+"/graph?graph=alpha",
		`{"mutations":[{"op":"set-weight","from":0,"to":1,"weight":5}]}`); code != http.StatusOK {
		t.Fatalf("PATCH: status %d: %s", code, body)
	}
	getJSON(t, ts.URL+"/sssp?graph=alpha&source=0&target=9", http.StatusOK, nil)
	scrub.ScrubOnce()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return body
	}
	statsBody, metricsBody := get("/stats"), get("/metrics")

	var types []string
	for _, line := range strings.Split(string(metricsBody), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			types = append(types, rest)
		}
	}
	for _, tc := range []struct {
		what string
		got  []string
		want string
	}{
		{"/metrics TYPE lines", types, goldenMetricTypes},
		{"/stats keys", topLevelKeys(t, statsBody), goldenStatsKeys},
		{"/stats?graph=alpha keys", topLevelKeys(t, get("/stats?graph=alpha")), goldenGraphStatsKeys},
		{"/healthz/ready keys", topLevelKeys(t, get("/healthz/ready")), goldenReadyKeys},
	} {
		if got := strings.Join(tc.got, "\n"); got != strings.TrimSpace(tc.want) {
			t.Errorf("%s changed:\n got:\n%s\nwant:\n%s", tc.what, got, strings.TrimSpace(tc.want))
		}
	}

	families := lintPromText(t, string(metricsBody))
	metric := func(series string) int64 {
		t.Helper()
		for _, f := range families {
			if v, ok := f.samples[series]; ok {
				return int64(v)
			}
		}
		t.Fatalf("series %s not exported", series)
		return 0
	}
	var st statsResponse
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache == nil || st.Audit == nil || st.Cache.Hits != 1 || st.Audit.Passed == 0 {
		t.Fatalf("/stats cache %+v audit %+v, want 1 hit and passed audits", st.Cache, st.Audit)
	}
	for _, c := range []struct {
		series string
		stats  int64
	}{
		{"ssspd_solves_completed_total", st.Completed},
		{"ssspd_cache_hits_total", st.Cache.Hits},
		{"ssspd_cache_misses_total", st.Cache.Misses},
		{`ssspd_audits_total{outcome="passed"}`, st.Audit.Passed},
		{`ssspd_graph_version{graph="alpha"}`, int64(st.Graphs["alpha"].Version)},
		{`ssspd_graph_version{graph="beta"}`, int64(st.Graphs["beta"].Version)},
	} {
		if got := metric(c.series); got != c.stats {
			t.Errorf("%s = %d on /metrics, %d on /stats", c.series, got, c.stats)
		}
	}
	if v := st.Graphs["alpha"].Version; v != 2 {
		t.Errorf("alpha version %d after one mutation, want 2", v)
	}
}

// topLevelKeys lists a JSON object's keys in document order.
func topLevelKeys(t *testing.T, body []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", body)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

const goldenMetricTypes = `
ssspd_solve_duration_seconds histogram
ssspd_mutations_total counter
ssspd_mutation_duration_seconds histogram
ssspd_sessions gauge
ssspd_sessions_idle gauge
ssspd_solves_in_flight gauge
ssspd_queue_depth gauge
ssspd_draining gauge
ssspd_graphs gauge
ssspd_graph_version gauge
ssspd_reloads_total counter
ssspd_pressure gauge
ssspd_pressure_queue_delay gauge
ssspd_pressure_queue_depth gauge
ssspd_pressure_latency gauge
ssspd_brownout_level gauge
ssspd_brownout_transitions_total counter
ssspd_governor_sheds_total counter
ssspd_retry_after_seconds gauge
ssspd_solves_completed_total counter
ssspd_solves_degraded_total counter
ssspd_requests_shed_total counter
ssspd_sessions_quarantined_total counter
ssspd_quarantined gauge
ssspd_quarantines_total counter
ssspd_audits_total counter
ssspd_audit_failures_total counter
ssspd_scrub_passes_total counter
ssspd_scrub_files_total counter
ssspd_scrub_corrupt_total counter
ssspd_scrub_cache_entries_total counter
ssspd_checkpoints_distrusted_total counter
ssspd_checkpoint_writes_total counter
ssspd_checkpoints_recovered_total counter
ssspd_checkpoints_skipped_total counter
ssspd_checkpoint_last_age_seconds gauge
ssspd_checkpoint_write_errors_total counter
ssspd_checkpoint_writes_skipped_total counter
ssspd_checkpoint_disabled gauge
ssspd_cache_hits_total counter
ssspd_cache_misses_total counter
ssspd_cache_coalesced_total counter
ssspd_cache_evicted_total counter
ssspd_cache_warm_starts_total counter
ssspd_cache_cold_starts_total counter
ssspd_cache_reuse_shed_total counter
ssspd_cache_entries gauge
ssspd_cache_bytes gauge
ssspd_cache_max_bytes gauge
ssspd_cache_hit_duration_seconds histogram
ssspd_scheduler_solves_observed_total counter
ssspd_scheduler_relaxations_total counter
ssspd_scheduler_improvements_total counter
ssspd_scheduler_stale_skips_total counter
ssspd_scheduler_bucket_advances_total counter
ssspd_scheduler_chunks_drained_total counter
ssspd_scheduler_steal_rounds_total counter
ssspd_scheduler_steal_attempts_total counter
ssspd_scheduler_steal_hits_total counter
ssspd_scheduler_trace_events_dropped_total counter
`

const goldenStatsKeys = `
sessions
idle
in_flight
queued
completed
degraded
shed
quarantined
p50_ms
p99_ms
draining
checkpoint_writes
last_checkpoint_age_ms
recovered
recovery_skipped
checkpoint_write_errors
checkpoint_writes_skipped
checkpointing_disabled
governor
cache
audit
scrub
graphs_quarantined
reloads
graphs
`

const goldenGraphStatsKeys = `
name
version
state
vertices
edges
directed
weight_fp
relabeled
warm_sources
history
pool
`

const goldenReadyKeys = `
ready
draining
pressure
brownout
graphs
`
