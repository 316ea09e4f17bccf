package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"wasp"
	"wasp/internal/verify"
)

// graphName is the registry name ssspd serves a -graph under.
const graphName = "default"

// ssspd's flag defaults, mirrored for the in-process replay.
// checkFlagDefaults compares them with the defaults `ssspd -h` prints,
// and checkDrift compares the daemon's /stats with the options built
// from them. How ssspd wires its flags into RegistryOptions is copied
// in replayOptions without a check.
const (
	defAlgo             = wasp.AlgoWasp
	defDelta            = 1
	defSessions         = 2
	defQueue            = 8
	defQueueWait        = 100 * time.Millisecond
	defCacheBytes       = 64 << 20
	defAuditRate        = 0.01
	defScrubEvery       = time.Minute
	defDegradedDeadline = 50 * time.Millisecond
	defRetryAfter       = 30 * time.Second
	defHistory          = 2
	defDrainTimeout     = 10 * time.Second
	defTraceCapacity    = 4096
)

// replayOptions builds the registry configuration ssspd runs with by
// default, with onSolve as the pool's solve hook.
func replayOptions(onSolve func(wasp.SolveObservation)) wasp.RegistryOptions {
	return wasp.RegistryOptions{
		Options: wasp.Options{Algorithm: defAlgo, Workers: runtime.GOMAXPROCS(0), Delta: defDelta},
		Cache:   wasp.NewCache(wasp.CacheOptions{MaxBytes: defCacheBytes}),
		Pool: wasp.PoolOptions{
			Sessions:   defSessions,
			QueueDepth: defQueue,
			QueueWait:  defQueueWait,
			Observe:    &wasp.ObserverConfig{TraceCapacity: defTraceCapacity},
			OnSolve:    onSolve,
			Governor: wasp.NewGovernor(wasp.GovernorConfig{
				QueueDelayBudget: defQueueWait,
				DegradedDeadline: defDegradedDeadline,
				MaxRetryAfter:    defRetryAfter,
				Slots:            defSessions,
			}),
		},
		History:      defHistory,
		DrainTimeout: defDrainTimeout,
		Audit:        &wasp.AuditorOptions{SampleRate: defAuditRate, Async: true},
	}
}

// mirroredFlags lists each ssspd flag whose default replayOptions
// copies, with the default as `ssspd -h` prints it. "" stands for the
// zero value, which the flag package does not print.
func mirroredFlags() map[string]string {
	return map[string]string{
		"algo":              strconv.Quote(defAlgo.String()),
		"workers":           strconv.Itoa(runtime.GOMAXPROCS(0)),
		"delta":             strconv.Itoa(defDelta),
		"sessions":          strconv.Itoa(defSessions),
		"queue":             strconv.Itoa(defQueue),
		"queue-wait":        defQueueWait.String(),
		"deadline":          "",
		"drain-timeout":     defDrainTimeout.String(),
		"retry-after":       defRetryAfter.String(),
		"history":           strconv.Itoa(defHistory),
		"brownout":          "true",
		"degraded-deadline": defDegradedDeadline.String(),
		"checkpoint-dir":    "",
		"cache-mb":          strconv.Itoa(defCacheBytes >> 20),
		"audit-sample":      strconv.FormatFloat(defAuditRate, 'g', -1, 64),
		"scrub-interval":    defScrubEvery.String(),
		"trace-capacity":    strconv.Itoa(defTraceCapacity),
	}
}

// checkFlagDefaults fails when a default of ssspd's flags differs from
// the copy replayOptions is built from.
func checkFlagDefaults(ctx context.Context, bin string) error {
	usage, err := exec.CommandContext(ctx, bin, "-h").CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s -h: %w\n%s", bin, err, usage)
	}
	got := parseFlagDefaults(string(usage))
	want := mirroredFlags()
	var errs []error
	for _, name := range slices.Sorted(maps.Keys(want)) {
		if have, ok := got[name]; !ok {
			errs = append(errs, fmt.Errorf("-%s: ssspd has no such flag", name))
		} else if have != want[name] {
			errs = append(errs, fmt.Errorf("-%s: ssspd default %q, replay %q", name, have, want[name]))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("ssspd's flag defaults drifted from the replay's:\n%w", err)
	}
	return nil
}

// parseFlagDefaults reads the flag package's usage text: each flag is a
// "  -name [type]" line followed by its usage, which ends in
// "(default v)" unless the default is the zero value.
func parseFlagDefaults(usage string) map[string]string {
	defaults := map[string]string{}
	name := ""
	for _, line := range strings.Split(usage, "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			name = strings.Fields(rest)[0]
			defaults[name] = ""
		}
		if i := strings.LastIndex(line, "(default "); name != "" && i >= 0 && strings.HasSuffix(line, ")") {
			defaults[name] = line[i+len("(default ") : len(line)-1]
		}
	}
	return defaults
}

// checkDrift fails when the daemon does not run the configuration the
// replay reproduces.
func checkDrift(c daemonConfig, opt wasp.RegistryOptions) error {
	var errs []error
	if c.Sessions != opt.Pool.Sessions {
		errs = append(errs, fmt.Errorf("sessions: daemon %d, replay %d", c.Sessions, opt.Pool.Sessions))
	}
	if c.Cache == nil || c.Cache.MaxBytes != opt.Cache.Stats().MaxBytes {
		errs = append(errs, fmt.Errorf("cache max_bytes: daemon %+v, replay %d", c.Cache, opt.Cache.Stats().MaxBytes))
	}
	if (c.Audit != nil) != (opt.Audit != nil) {
		errs = append(errs, fmt.Errorf("auditor: daemon %t, replay %t", c.Audit != nil, opt.Audit != nil))
	}
	if (c.Governor != nil) != (opt.Pool.Governor != nil) {
		errs = append(errs, fmt.Errorf("governor: daemon %t, replay %t", c.Governor != nil, opt.Pool.Governor != nil))
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("daemon configuration drifted from the replay's:\n%w", err)
	}
	return nil
}

// span is one timed call into a layer. Parent is the index of the
// request span that caused it, -1 for a request.
type span struct {
	Name       string
	Parent     int
	Source     wasp.Vertex
	Start, End time.Duration // since the recorder's epoch
	Pressure   float64       // governor pressure when a request span ended
}

// recorder keeps the replay's spans in memory.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// open lists, per source, the request spans still waiting for a
	// solve. A solve is attributed to the earliest of them: the cache's
	// flight leader, since followers arrive after it.
	open map[wasp.Vertex][]int
	work wasp.WorkerMetrics // summed Observer.Totals of every solve
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), open: map[wasp.Vertex][]int{}}
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// begin opens a request span, which may later own a solve.
func (r *recorder) begin(name string, source wasp.Vertex) int {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: -1, Source: source, Start: now})
	r.open[source] = append(r.open[source], id)
	return id
}

func (r *recorder) end(id int, pressure float64) {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &r.spans[id]
	sp.End, sp.Pressure = now, pressure
	r.open[sp.Source] = slices.DeleteFunc(r.open[sp.Source], func(i int) bool { return i == id })
}

// onSolve is the pool's OnSolve hook: it runs in the solving request's
// goroutine right after the solve, while the session's observer is
// quiescent.
func (r *recorder) onSolve(o wasp.SolveObservation) {
	now := r.now()
	t := o.Observer.Totals()
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if q := r.open[o.Source]; len(q) > 0 {
		parent, r.open[o.Source] = q[0], q[1:]
	}
	r.spans = append(r.spans, span{Name: "pool.solve", Parent: parent, Source: o.Source, Start: now - o.Elapsed, End: now})
	r.work.Relaxations += t.Relaxations
	r.work.Improvements += t.Improvements
	r.work.StaleSkips += t.StaleSkips
	r.work.StealHits += t.StealHits
	r.work.StealRounds += t.StealRounds
	r.work.BucketAdvances += t.BucketAdvances
}

// snapshot copies the spans and work counters recorded so far.
func (r *recorder) snapshot() ([]span, wasp.WorkerMetrics) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans), r.work
}

// writeChrome writes spans in the Chrome trace event format, one lane
// per request, for chrome://tracing or ui.perfetto.dev.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		lane := i
		if s.Parent >= 0 {
			lane = s.Parent
		}
		events[i] = event{Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start), PID: 1, TID: lane,
			Args: map[string]any{"source": s.Source, "parent": s.Parent, "pressure": s.Pressure}}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// registryTarget replays queries against a wasp.Registry in process,
// timing each call.
type registryTarget struct {
	reg *wasp.Registry
	gov *wasp.Governor
	rec *recorder
}

func (t registryTarget) query(ctx context.Context, source, dest wasp.Vertex) (uint32, error) {
	id := t.rec.begin("registry.run", source)
	res, err := t.reg.Run(ctx, graphName, source)
	t.rec.end(id, t.gov.Pressure())
	if err != nil {
		return 0, err
	}
	if !res.Complete {
		return 0, errIncomplete
	}
	return res.Dist[dest], nil
}

// replayRun is what the traced in-process replay measured.
type replayRun struct {
	phases
	winStart  time.Duration // recorder time at which the window began
	spans     []span        // fill, warm-up and window
	work      wasp.WorkerMetrics
	allocs    float64 // heap bytes allocated during the window
	gcCycles  float64 // GC cycles completed during the window
	hitMeanUS float64 // the cache's own exact-hit timer, whole replay
	probe     probeRun
}

// probeRun holds the unloaded single-layer timings taken after the
// replay window.
type probeRun struct {
	runHit  []time.Duration // Registry.Run on a cached source
	certify []time.Duration // verify.Certificate
	apply   []time.Duration // wasp.ApplyMutations of one patch batch
	cone    []float64       // MutationDelta.Invalidated over |V|
	mutate  []time.Duration // Registry.Mutate of one patch batch
}

const probeReps = 50

// runReplay replays the run's schedule in process against a Registry
// built with ssspd's defaults, then runs the probe on it.
func runReplay(ctx context.Context, cfg config, g *wasp.Graph, s schedule, probeSource wasp.Vertex) (*replayRun, error) {
	rec := newRecorder()
	opt := replayOptions(rec.onSolve)
	reg := wasp.NewRegistry(opt)
	scrub := wasp.NewScrubber(wasp.ScrubberOptions{Cache: opt.Cache, Interval: defScrubEvery})
	scrub.Start()
	defer scrub.Close()
	defer func() {
		cctx, cancel := context.WithTimeout(context.Background(), defDrainTimeout)
		defer cancel()
		_ = reg.Close(cctx) // every replay call has returned; nothing is left to drain
	}()
	if err := reg.LoadGraph(ctx, graphName, g); err != nil {
		return nil, fmt.Errorf("replay: load graph: %w", err)
	}
	t := registryTarget{reg: reg, gov: opt.Pool.Governor, rec: rec}

	r := &replayRun{}
	r.fill = drive(ctx, t, s.Fill, cfg.conns)
	r.warm = drive(ctx, t, s.Warmup, cfg.conns)
	gc0 := readGC()
	r.winStart = rec.now()
	r.win = drive(ctx, t, s.Window, cfg.conns)
	gc1 := readGC()
	r.allocs, r.gcCycles = gc1[0]-gc0[0], gc1[1]-gc0[1]
	r.spans, r.work = rec.snapshot()

	probe, err := runProbe(ctx, reg, g, probeSource, cfg.seed)
	if err != nil {
		return nil, err
	}
	r.probe = probe
	hl := opt.Cache.Stats().HitLatency
	r.hitMeanUS = ratio(us(hl.Sum), float64(hl.Count))
	path := fmt.Sprintf("%s/trace-%s-seed%d.json", cfg.out, cfg.w.name, cfg.seed)
	if err := writeChrome(path, r.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return r, nil
}

// readGC samples the runtime's cumulative allocation and GC counters.
func readGC() [2]float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return [2]float64{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())}
}

// runProbe times single layers one call at a time on the replay's
// registry: a cached-source Run, the auditor's certificate, applying a
// patch batch and sizing its invalidation cone, and a Registry.Mutate.
func runProbe(ctx context.Context, reg *wasp.Registry, g *wasp.Graph, source wasp.Vertex, seed uint64) (probeRun, error) {
	var p probeRun
	res, err := reg.Run(ctx, graphName, source) // caches the source if it was evicted
	if err != nil {
		return p, fmt.Errorf("probe: %w", err)
	}
	for range probeReps {
		start := time.Now()
		if _, err := reg.Run(ctx, graphName, source); err != nil {
			return p, fmt.Errorf("probe: %w", err)
		}
		p.runHit = append(p.runHit, time.Since(start))
	}
	for range 5 {
		start := time.Now()
		if err := verify.Certificate(g, source, res.Dist); err != nil {
			return p, fmt.Errorf("probe: served distances fail their certificate: %w", err)
		}
		p.certify = append(p.certify, time.Since(start))
	}
	r := rand.New(rand.NewPCG(seed, 0x9b0be))
	for range 5 {
		batch := patchBatch(g, r)
		start := time.Now()
		_, d, err := wasp.ApplyMutations(g, batch)
		if err != nil {
			return p, fmt.Errorf("probe: %w", err)
		}
		p.apply = append(p.apply, time.Since(start))
		inv, err := d.Invalidated(source, res.Dist)
		if err != nil {
			return p, fmt.Errorf("probe: %w", err)
		}
		p.cone = append(p.cone, float64(inv)/float64(g.NumVertices()))
	}
	cur := g
	for range 3 {
		batch := patchBatch(cur, r)
		start := time.Now()
		_, d, err := reg.Mutate(ctx, graphName, batch)
		if err != nil {
			return p, fmt.Errorf("probe: %w", err)
		}
		p.mutate = append(p.mutate, time.Since(start))
		cur = d.Graph()
	}
	return p, nil
}
