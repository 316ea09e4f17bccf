// Command bench is the end-to-end benchmark of ssspd: it builds on a
// generated graph, drives the daemon over loopback with a seeded
// open-loop schedule, checks every sampled answer against Dijkstra, and
// prints the metrics named in BENCHMARK.json. With -trace 1 it also
// replays the schedule in process against a wasp.Registry built with
// the daemon's defaults, timing calls into each layer, and prints the
// per-layer metrics instead.
//
// Run it through bench/run.sh from the repository root, which builds
// cmd/ssspd and this command first:
//
//	bash bench/run.sh --workload road-hit --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"wasp"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of ssspd sees; -trace 0 prints them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the single-layer metrics; -trace 1 prints them.
var perLayer = []metricDef{
	{"ssspd.hit_self_us", "us"},
	{"registry.run_p50_us", "us"},
	{"registry.run_p99_us", "us"},
	{"registry.mutate_p50_ms", "ms"},
	{"governor.sheds", "count"},
	{"governor.transitions", "count"},
	{"governor.pressure_max", "ratio"},
	{"cache.hit_mean_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"cache.coalesced", "count"},
	{"cache.evicted", "count"},
	{"cache.warm_ratio", "ratio"},
	{"pool.solves", "count"},
	{"pool.solve_p50_ms", "ms"},
	{"pool.solve_p99_ms", "ms"},
	{"pool.pre_solve_p99_ms", "ms"},
	{"pool.post_solve_p50_us", "us"},
	{"core.relax_per_solve", "count"},
	{"core.improve_ratio", "ratio"},
	{"core.stale_skip_per_solve", "count"},
	{"core.steal_hit_ratio", "ratio"},
	{"core.bucket_adv_per_solve", "count"},
	{"auditor.sampled", "count"},
	{"auditor.dropped", "count"},
	{"auditor.failed", "count"},
	{"auditor.certify_ms", "ms"},
	{"overlay.apply_ms_p50", "ms"},
	{"overlay.cone_frac", "ratio"},
	{"gc.alloc_kb_per_op", "kB"},
	{"gc.cycles_per_kop", "count"},
	{"gen.late_p99_ms", "ms"},
	{"gen.conn_wait_p99_ms", "ms"},
}

// maxLateMS is the generator lateness at p99 above which a run's
// latencies measure the load generator, not the daemon.
const maxLateMS = 5

// warmup is the unrecorded warm-up at the workload's rate between the
// cache fill and the window.
const warmup = 3 * time.Second

type config struct {
	w              workload
	n              int // vertex count passed to the generator
	seed           uint64
	warmup, window time.Duration
	trace          bool
	ssspd          string // daemon binary
	out            string // directory for the span file of a traced run
	conns          int    // dispatch goroutines and keep-alive connections
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "road-hit", "workload to run")
		seed    = flag.Uint64("seed", 1, "schedule seed (1 for development, 2 held out)")
		seconds = flag.Int("seconds", 30, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1: add the traced in-process replay and print per-layer metrics")
		ssspd   = flag.String("ssspd", ".bench_build/ssspd", "ssspd binary")
		out     = flag.String("out", ".bench_build", "directory for the span file of a traced run")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, not %d", *trace))
	}
	cfg := config{w: w, n: w.n, seed: *seed, warmup: warmup, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, ssspd: *ssspd, out: *out, conns: runtime.NumCPU()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, cfg, os.Stdout)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// run executes one pass and returns its report; log receives the
// human-readable lines.
func run(ctx context.Context, cfg config, log io.Writer) (report, error) {
	fmt.Fprintf(log, "env: go=%s nproc=%d cpu=%q commit=%s\n", runtime.Version(), runtime.NumCPU(), cpuModel(), commit())
	g, err := wasp.GenerateWorkload(cfg.w.graph, wasp.WorkloadConfig{N: cfg.n, Seed: 1})
	if err != nil {
		return report{}, err
	}
	s := newSchedule(cfg.w, g, cfg.seed, cfg.warmup, cfg.window)
	fmt.Fprintf(log, "workload %s: %s |V|=%d |E|=%d, seed %d, %d fill + %d warm-up + %d window ops over %v, %d connections, trace=%t\n",
		cfg.w.name, cfg.w.graph, g.NumVertices(), g.NumEdges(), cfg.seed, len(s.Fill), len(s.Warmup), len(s.Window), cfg.window, cfg.conns, cfg.trace)

	d, err := runDaemon(ctx, cfg, s)
	if err != nil {
		return report{}, err
	}
	rep := report{Correct: true, Attempted: len(d.win), Failed: failures(d.win)}
	check := func(what string, o phases) {
		n, err := checkRun(g, s, o, cfg.seed)
		if err != nil {
			rep.Correct = false
			fmt.Fprintf(log, "check %s: FAILED: %v\n", what, err)
			return
		}
		fmt.Fprintf(log, "check %s: %d answers agree with Dijkstra\n", what, n)
	}
	check("daemon", d.phases)
	m, err := daemonMetrics(d)
	if err != nil {
		return report{}, err
	}
	if m["auditor.failed"] > 0 {
		rep.Correct = false
		fmt.Fprintf(log, "check daemon audits: FAILED: %v sampled results failed their certificate\n", m["auditor.failed"])
	}
	fmt.Fprintf(log, "query p90 %.3f ms; tail: p%.1f of %v queries = %.3f ms\n", m["query_p90_ms"], 100*m["query_tail_q"], m["queries"], m["query_tail_ms"])
	fmt.Fprintf(log, "generator: late p99 %.3f ms, connection wait p99 %.3f ms\n", m["gen.late_p99_ms"], m["gen.conn_wait_p99_ms"])
	if m["gen.late_p99_ms"] > maxLateMS {
		fmt.Fprintf(log, "generator: WARNING: ran more than %d ms late at p99; this run's latencies are not valid\n", maxLateMS)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		r, err := runReplay(ctx, cfg, g, s, d.probeSource)
		if err != nil {
			return report{}, err
		}
		rep.Attempted += len(r.win)
		rep.Failed += failures(r.win)
		check("replay", r.phases)
		replayMetrics(m, d, r)
	}
	rep.Metrics = map[string]metric{}
	for _, def := range defs {
		v, ok := m[def.name]
		if !ok || math.IsNaN(v) {
			return report{}, fmt.Errorf("metric %s was not measured", def.name)
		}
		fmt.Fprintf(log, "%-28s %14.4f %s\n", def.name, v, def.unit)
		// JSON has no infinity; a percentile that lands on failed
		// operations reports the largest number it can.
		rep.Metrics[def.name] = metric{Value: min(v, math.MaxFloat64), Unit: def.unit}
	}
	return rep, nil
}

func failures(out []outcome) int {
	n := 0
	for _, o := range out {
		if o.Err != nil {
			n++
		}
	}
	return n
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the VCS revision the benchmark was built from, as the
// go command stamped it; a checkout without version control has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+modified"
		}
	}
	return rev + dirty
}
