// Command sssp runs any of the package's SSSP implementations on a
// generated workload or a graph file, reporting time, work counters and
// optional verification — the analogue of the paper artifact's per-run
// driver.
//
// Usage:
//
//	sssp -graph road-usa -n 65536 -algo wasp -workers 8 -delta 64
//	sssp -file kron.wspg -algo gap -delta 16 -trials 5 -verify
//	sssp -graph twitter -algo all -workers 4
//	sssp -graph kron -algo wasp -sources 8
//
// Crash recovery: -checkpoint periodically snapshots the in-flight
// solve to a file, and -resume warm-starts from that file after a
// crash, converging to the same distances an uninterrupted run
// produces:
//
//	sssp -graph road-usa -n 1048576 -trials 1 -checkpoint run.wsck
//	sssp -graph road-usa -n 1048576 -trials 1 -checkpoint run.wsck -resume
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"wasp"
	"wasp/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sssp: ")
	var (
		name     = flag.String("graph", "", "workload to generate (see graphgen -list)")
		file     = flag.String("file", "", "graph file to load (.wspg binary or text edge list)")
		n        = flag.Int("n", 1<<15, "vertex count for generated workloads")
		seed     = flag.Uint64("seed", 1, "generator / source-pick seed")
		algo     = flag.String("algo", "wasp", "algorithm name, or 'all' (see -algos)")
		algos    = flag.Bool("algos", false, "list algorithms and exit")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "worker count")
		delta    = flag.Uint("delta", 1, "Δ-coarsening factor")
		rho      = flag.Int("rho", 4096, "ρ-stepping's per-step vertex budget (-algo rho only)")
		trials   = flag.Int("trials", 3, "trials per algorithm (best time reported)")
		timeout  = flag.Duration("timeout", 0, "per-solve latency budget (whole-batch with -sources); an expired budget prints the partial result with a 'partial' marker and exits 0")
		sources  = flag.Int("sources", 1, "batch mode: solve from this many distinct sources instead of repeating one")
		doVerify = flag.Bool("verify", false, "verify outputs against the SSSP certificate")
		metrics  = flag.Bool("metrics", false, "with -trace, also time steal rounds and idle waits in the scheduler summary")
		pathTo   = flag.Int("path", -1, "also print the shortest path to this vertex")
		steal    = flag.String("steal", "wasp", "wasp steal policy: wasp, random or two-choice")
		tracing  = flag.String("trace", "", "write the final trial's scheduler trace to this file (Chrome trace JSON, open in chrome://tracing or ui.perfetto.dev) and print a scheduler summary")

		ckptPath   = flag.String("checkpoint", "", "periodically snapshot the in-flight solve to this file (wasp, -trials 1)")
		ckptEvery  = flag.Duration("checkpoint-interval", 250*time.Millisecond, "interval between checkpoints")
		resume     = flag.Bool("resume", false, "warm-start from the -checkpoint file instead of solving from scratch")
		dumpPath   = flag.String("dump", "", "write the final distances to this file in checkpoint format")
		crashAfter = flag.Int("crash-after", 0, "(crash harness) SIGKILL this process after N checkpoints are written")
	)
	flag.Parse()

	if *algos {
		fmt.Println(strings.Join(wasp.Algorithms(), "\n"))
		return
	}

	// SIGINT/SIGTERM cancels the in-flight solve cooperatively instead
	// of killing the process: the run drains at its next cancellation
	// point and the partial result is reported below. A second signal
	// falls through to the default handler and terminates.
	ctx, stopSignals := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	// Restore default signal disposition once cancelled, so the second
	// signal is not swallowed while the partial report prints.
	context.AfterFunc(ctx, stopSignals)

	g, err := cli.LoadGraph(*name, *file, *n, *seed)
	if err != nil {
		log.Fatal(err)
	}

	var names []string
	if *algo == "all" {
		names = wasp.Algorithms()
	} else {
		names = strings.Split(*algo, ",")
	}

	opt := wasp.Options{
		Workers: *workers,
		Delta:   uint32(*delta),
		Rho:     *rho,
		Verify:  *doVerify,
	}
	switch *steal {
	case "wasp":
		opt.Steal = wasp.StealWasp
	case "random":
		opt.Steal = wasp.StealRandom
	case "two-choice":
		opt.Steal = wasp.StealTwoChoice
	default:
		log.Fatalf("unknown steal policy %q (have wasp, random, two-choice)", *steal)
	}

	if *ckptPath == "" && (*resume || *crashAfter > 0) {
		log.Fatal("-resume and -crash-after require -checkpoint")
	}
	if *ckptPath != "" {
		// Checkpointing supervises exactly one wasp solve: multiple
		// trials or algorithms would overwrite each other's snapshots.
		if len(names) != 1 || strings.TrimSpace(names[0]) != "wasp" {
			log.Fatal("-checkpoint requires -algo wasp")
		}
		if *trials != 1 || *sources > 1 {
			log.Fatal("-checkpoint requires -trials 1 and a single source")
		}
		opt.CheckpointInterval = *ckptEvery
		saved := 0
		opt.CheckpointSink = func(cp *wasp.Checkpoint) {
			if err := wasp.SaveCheckpoint(*ckptPath, cp); err != nil {
				log.Printf("checkpoint: %v", err)
				return
			}
			saved++
			if *crashAfter > 0 && saved >= *crashAfter {
				// Crash harness: die the hard way, mid-solve, with the
				// checkpoint just written as the only survivor.
				p, _ := os.FindProcess(os.Getpid())
				_ = p.Kill()
				select {} // unreachable once the signal lands
			}
		}
	}
	if *dumpPath != "" && len(names) != 1 {
		log.Fatal("-dump requires a single algorithm")
	}

	// -trace attaches an Observer to the session: scheduler events (wasp
	// only) plus per-worker counters (every algorithm). The export after
	// the trials covers the final trial — the observer resets per run.
	var obs *wasp.Observer
	if *tracing != "" {
		if len(names) != 1 || *sources > 1 {
			log.Fatal("-trace requires a single algorithm and a single source")
		}
		obs = wasp.NewObserver(wasp.ObserverConfig{Timing: *metrics})
		opt.Observer = obs
	}

	var warm *wasp.Checkpoint
	src := wasp.SourceInLargestComponent(g, *seed)
	if *resume {
		cp, err := wasp.LoadCheckpoint(*ckptPath)
		if err != nil {
			log.Fatal(err)
		}
		warm = cp
		src = wasp.Vertex(cp.Source)
		fmt.Printf("resuming from %s: %d/%d settled, %v elapsed\n",
			*ckptPath, cp.Settled(), g.NumVertices(), cp.Elapsed)
	}

	if *sources > 1 {
		runBatch(ctx, g, names, *sources, *seed, *timeout, opt)
		return
	}
	fmt.Printf("graph: %v\nsource: %d\n\n", wasp.Stats(g), src)

	fmt.Printf("%-12s %12s %10s %14s\n", "algorithm", "best time", "reached", "relaxations")
	for _, an := range names {
		a, err := wasp.ParseAlgorithm(strings.TrimSpace(an))
		if err != nil {
			log.Fatal(err)
		}
		// One session per algorithm: the trials share the preallocated
		// solver state, so trial 2..n measure steady-state reuse rather
		// than allocation. Verification (when requested) happens after
		// Elapsed is recorded, so it never skews the timings.
		opt.Algorithm = a
		sess, err := wasp.NewSession(g, opt)
		if err != nil {
			log.Fatal(err)
		}
		best := time.Duration(0)
		var last *wasp.Result
		degraded := false
		for trial := 0; trial < *trials; trial++ {
			runCtx, cancelRun := ctx, context.CancelFunc(func() {})
			if *timeout > 0 {
				runCtx, cancelRun = context.WithTimeout(ctx, *timeout)
			}
			var res *wasp.Result
			var err error
			if warm != nil {
				res, err = sess.Resume(runCtx, warm)
				warm = nil // consumed; further trials are forbidden anyway
			} else {
				res, err = sess.Run(runCtx, src)
			}
			cancelRun()
			if errors.Is(err, wasp.ErrCancelled) {
				if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
					// The -timeout budget expired: the partial
					// upper-bound snapshot is the (degraded) answer.
					fmt.Printf("%-12s %12v %10d %14s  partial (%.1f%% settled, budget %v)\n",
						a, res.Elapsed, res.Progress.Reached, "-",
						res.Progress.Settled*100, *timeout)
					degraded = true
					break
				}
				fmt.Printf("%-12s  interrupted after %v: %d/%d vertices reached (partial)\n",
					a, res.Elapsed, res.Progress.Reached, g.NumVertices())
				os.Exit(130) // conventional exit code for SIGINT
			}
			if err != nil {
				log.Fatal(err)
			}
			if best == 0 || res.Elapsed < best {
				best = res.Elapsed
			}
			last = res
		}
		if degraded {
			// Export even after a degraded trial: the partial schedule is
			// exactly what a latency investigation wants to see.
			if obs != nil {
				if err := exportTrace(obs, *tracing); err != nil {
					log.Fatal(err)
				}
			}
			continue // partial row already printed; exit stays 0
		}
		fmt.Printf("%-12s %12v %10d %14d\n", a, best, last.Progress.Reached, last.Metrics.Relaxations)

		if obs != nil {
			if err := exportTrace(obs, *tracing); err != nil {
				log.Fatal(err)
			}
		}
		if *ckptPath != "" {
			// The solve completed: the in-flight checkpoint is spent.
			_ = os.Remove(*ckptPath)
		}
		if *dumpPath != "" {
			cp := &wasp.Checkpoint{
				Source:        uint32(src),
				GraphVertices: g.NumVertices(),
				GraphEdges:    g.NumEdges(),
				Directed:      g.Directed(),
				WeightFP:      g.WeightFingerprint(),
				Elapsed:       last.Elapsed,
				Relaxations:   last.Progress.Relaxations,
				Dist:          last.Dist,
			}
			if err := wasp.SaveCheckpoint(*dumpPath, cp); err != nil {
				log.Fatal(err)
			}
		}

		if *pathTo >= 0 && *pathTo < g.NumVertices() {
			// last.Dist aliases session storage, but the session is done:
			// no further Run happens before it is consumed here.
			parents, err := wasp.BuildParents(g, src, last.Dist)
			if err != nil {
				log.Fatal(err)
			}
			path := wasp.PathTo(parents, src, wasp.Vertex(*pathTo))
			if path == nil {
				fmt.Printf("  no path from %d to %d\n", src, *pathTo)
			} else {
				fmt.Printf("  path %d→%d (length %d, %d hops): %v\n",
					src, *pathTo, last.Dist[*pathTo], len(path)-1, path)
			}
		}
	}
}

// runBatch solves from nSources distinct sources per algorithm through
// RunManyContext (one reused session under the hood) and prints a row
// per source. On SIGINT the completed prefix plus the interrupted
// solve's partial snapshot are reported before exiting 130.
func runBatch(ctx context.Context, g *wasp.Graph, names []string, nSources int, seed uint64, timeout time.Duration, opt wasp.Options) {
	srcs := wasp.SourcesInLargestComponent(g, seed, nSources)
	fmt.Printf("graph: %v\nbatch: %d sources\n\n", wasp.Stats(g), nSources)

	for _, an := range names {
		a, err := wasp.ParseAlgorithm(strings.TrimSpace(an))
		if err != nil {
			log.Fatal(err)
		}
		opt.Algorithm = a
		batchCtx, cancelBatch := ctx, context.CancelFunc(func() {})
		if timeout > 0 {
			batchCtx, cancelBatch = context.WithTimeout(ctx, timeout)
		}
		results, err := wasp.RunManyContext(batchCtx, g, srcs, opt)
		cancelBatch()
		cancelled := errors.Is(err, wasp.ErrCancelled)
		timedOut := cancelled && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil
		if err != nil && !cancelled {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n%-4s %10s %12s %10s %14s\n", a, "#", "source", "time", "reached", "relaxations")
		total := time.Duration(0)
		for i, res := range results {
			note := ""
			if !res.Complete {
				note = fmt.Sprintf("  partial (%.1f%% settled)", res.Progress.Settled*100)
			}
			fmt.Printf("%-4d %10d %12v %10d %14d%s\n",
				i, srcs[i], res.Elapsed, res.Progress.Reached, res.Metrics.Relaxations, note)
			total += res.Elapsed
		}
		switch {
		case timedOut:
			// The -timeout budget bounds the batch; the completed
			// prefix plus one partial row is the degraded answer.
			fmt.Printf("budget %v exceeded: %d/%d solves finished\n\n", timeout, len(results)-1, nSources)
			continue // exit stays 0
		case cancelled:
			fmt.Printf("interrupted: %d/%d solves finished before cancellation\n",
				len(results)-1, nSources)
			os.Exit(130)
		}
		fmt.Printf("total solve time: %v\n\n", total)
	}
}

// exportTrace writes the observer's final-trial Chrome trace to path
// and prints the human-readable scheduler summary (per-worker work,
// the near→far steal-tier breakdown, bucket-advance cadence) to stdout.
func exportTrace(obs *wasp.Observer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nscheduler trace (final trial) written to %s\n", path)
	return obs.WriteSummary(os.Stdout)
}
