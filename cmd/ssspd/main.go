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
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"wasp"
	"wasp/internal/cli"
)

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
	// cache lines; the trace buffer is bounded by -trace-capacity).
	// OnSolve sums each solve's scheduler counters for /metrics, so they
	// survive reloads, and keeps the slowest solves' Chrome traces for
	// /debug/traces.
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
		g, err := cli.LoadGraph(*name, *file, *n, *seed)
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
	st := s.state()
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
