package wasp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"wasp"
)

// TestObserverOnSession: an observer bound to a session collects a
// fresh trace and fresh counters per run.
func TestObserverOnSession(t *testing.T) {
	g, err := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 3000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	obs := wasp.NewObserver(wasp.ObserverConfig{})
	sess, err := wasp.NewSession(g, wasp.Options{
		Algorithm: wasp.AlgoWasp, Workers: 4, Delta: 4, Theta: 64,
		Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := wasp.SourceInLargestComponent(g, 1)

	for run := 0; run < 2; run++ {
		res, err := sess.Run(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		// Per-run trace: exactly one terminate per worker, every run.
		term := 0
		for _, e := range obs.Events() {
			if e.Kind == wasp.TraceTerminate {
				term++
			}
		}
		if term != 4 {
			t.Fatalf("run %d: %d terminate events, want 4 (trace must reset per run)", run, term)
		}
		// Per-worker counters sum to the aggregate Result.Metrics reports.
		tot := obs.Totals()
		var sum int64
		for _, w := range obs.PerWorker() {
			sum += w.Relaxations
		}
		if sum != tot.Relaxations {
			t.Fatalf("run %d: per-worker relaxation sum %d != totals %d", run, sum, tot.Relaxations)
		}
		if res.Metrics == nil || res.Metrics.Relaxations != tot.Relaxations {
			t.Fatalf("run %d: Result.Metrics disagrees with observer totals", run)
		}
		if tot.Relaxations == 0 {
			t.Fatalf("run %d: no relaxations observed", run)
		}
	}
}

// TestObserverPerWorkerSumsToAggregate: every counter in the
// per-worker breakdown must sum to the aggregate — the breakdown is
// lossless.
func TestObserverPerWorkerSumsToAggregate(t *testing.T) {
	g, err := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	obs := wasp.NewObserver(wasp.ObserverConfig{Timing: true})
	res, err := wasp.Run(g, wasp.SourceInLargestComponent(g, 1), wasp.Options{
		Algorithm: wasp.AlgoWasp, Workers: 3, Delta: 8, Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := obs.Totals()
	var sum wasp.WorkerMetrics
	for _, w := range obs.PerWorker() {
		sum.Relaxations += w.Relaxations
		sum.Improvements += w.Improvements
		sum.StaleSkips += w.StaleSkips
		sum.StealAttempts += w.StealAttempts
		sum.StealHits += w.StealHits
		sum.StealRounds += w.StealRounds
		sum.ChunksDrained += w.ChunksDrained
		sum.BucketAdvances += w.BucketAdvances
		sum.QueueOpNS += w.QueueOpNS
		sum.BarrierNS += w.BarrierNS
		sum.StealNS += w.StealNS
		sum.IdleNS += w.IdleNS
		for i := range w.TierHits {
			sum.TierHits[i] += w.TierHits[i]
		}
	}
	if sum != tot {
		t.Fatalf("per-worker sum != aggregate:\nsum %+v\ntot %+v", sum, tot)
	}
	if res.Metrics.Relaxations != tot.Relaxations {
		t.Fatalf("Result.Metrics.Relaxations = %d, observer totals %d",
			res.Metrics.Relaxations, tot.Relaxations)
	}
	// Steal hits, when any occurred, must be fully attributed to tiers
	// under the wasp policy.
	var tiers int64
	for _, h := range tot.TierHits {
		tiers += h
	}
	if tiers != tot.StealHits {
		t.Fatalf("tier hits %v sum to %d, want StealHits %d", tot.TierHits, tiers, tot.StealHits)
	}
}

// TestObserverExclusiveBinding: a bound observer is rejected by a
// second user instead of racing, and a one-shot Run releases it.
func TestObserverExclusiveBinding(t *testing.T) {
	g, err := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	obs := wasp.NewObserver(wasp.ObserverConfig{})
	sess, err := wasp.NewSession(g, wasp.Options{Workers: 2, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wasp.NewSession(g, wasp.Options{Workers: 2, Observer: obs}); err == nil {
		t.Fatal("second session bound an already-bound observer")
	}
	if _, err := wasp.Run(g, 0, wasp.Options{Workers: 2, Observer: obs}); err == nil {
		t.Fatal("one-shot run bound an already-bound observer")
	}
	_ = sess

	free := wasp.NewObserver(wasp.ObserverConfig{})
	if _, err := wasp.Run(g, 0, wasp.Options{Workers: 2, Observer: free}); err != nil {
		t.Fatal(err)
	}
	// The one-shot run released it: a session can now bind it.
	if _, err := wasp.NewSession(g, wasp.Options{Workers: 2, Observer: free}); err != nil {
		t.Fatalf("observer not released after one-shot run: %v", err)
	}
}

// TestObserverChromeTraceAndSummary: the exports parse and carry the
// scheduler's story.
func TestObserverChromeTraceAndSummary(t *testing.T) {
	g, err := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	obs := wasp.NewObserver(wasp.ObserverConfig{})
	if _, err := wasp.Run(g, wasp.SourceInLargestComponent(g, 1), wasp.Options{
		Algorithm: wasp.AlgoWasp, Workers: 4, Delta: 16, Observer: obs,
	}); err != nil {
		t.Fatal(err)
	}

	var trace bytes.Buffer
	if err := obs.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
	}
	for _, want := range []string{"thread_name", "terminate", "advance"} {
		if !names[want] {
			t.Fatalf("chrome trace missing %q events (have %v)", want, names)
		}
	}

	var sum bytes.Buffer
	if err := obs.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scheduler summary", "tier hits", "worker", "total"} {
		if !strings.Contains(sum.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, sum.String())
		}
	}
}

// TestObserverDefaultCapHoldsRoadSolve: ssspd's default 4096-event cap
// holds a whole Δ=1 road solve, the regime where workers advance a
// bucket every few dozen relaxations. Folded advances keep the trace
// inside the cap with nothing dropped, and the advance events still
// account for every advance the counters saw.
func TestObserverDefaultCapHoldsRoadSolve(t *testing.T) {
	g, err := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: 1 << 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	obs := wasp.NewObserver(wasp.ObserverConfig{TraceCapacity: 4096})
	sess, err := wasp.NewSession(g, wasp.Options{Workers: 2, Delta: 1, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range wasp.SourcesInLargestComponent(g, 1, 3) {
		res, err := sess.Run(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := wasp.Run(g, src, wasp.Options{Algorithm: wasp.AlgoDijkstra})
		if err != nil {
			t.Fatal(err)
		}
		for v := range ref.Dist {
			if res.Dist[v] != ref.Dist[v] {
				t.Fatalf("source %d: dist[%d] = %d, Dijkstra %d", src, v, res.Dist[v], ref.Dist[v])
			}
		}
		if d := obs.DroppedEvents(); d != 0 {
			t.Fatalf("source %d: %d events dropped at the default cap", src, d)
		}
		var advances int64
		for _, e := range obs.Events() {
			if e.Kind == wasp.TraceBucketAdvance {
				advances += int64(e.B)
			}
		}
		if want := obs.Totals().BucketAdvances; advances != want || want == 0 {
			t.Fatalf("source %d: advance events stand for %d advances, counters say %d",
				src, advances, want)
		}
	}
}

// TestObserverTraceDisabled: TraceCapacity < 0 collects counters only.
func TestObserverTraceDisabled(t *testing.T) {
	g, err := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 800, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	obs := wasp.NewObserver(wasp.ObserverConfig{TraceCapacity: -1})
	if _, err := wasp.Run(g, 0, wasp.Options{Workers: 2, Observer: obs}); err != nil {
		t.Fatal(err)
	}
	if obs.Events() != nil {
		t.Fatal("events collected with tracing disabled")
	}
	if obs.Totals().Relaxations == 0 {
		t.Fatal("counters must still collect with tracing disabled")
	}
	if err := obs.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("chrome export must error with tracing disabled")
	}
}

// TestObserverOnBaselineAlgorithm: observers work (counters only) on
// the non-Wasp paths too — the session fallback reuses the observer's
// collectors per run.
func TestObserverOnBaselineAlgorithm(t *testing.T) {
	g, err := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 1000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	obs := wasp.NewObserver(wasp.ObserverConfig{})
	sess, err := wasp.NewSession(g, wasp.Options{
		Algorithm: wasp.AlgoGAP, Workers: 2, Delta: 8, Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sess.Run(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		if obs.Totals().Relaxations == 0 {
			t.Fatalf("run %d: no relaxations observed on baseline path", i)
		}
	}
}

// TestPoolObservers: per-session observers reach the OnSolve hook
// quiescent, one solve at a time, and summing their per-solve Totals
// there aggregates the pool's whole history.
func TestPoolObservers(t *testing.T) {
	g, err := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 2000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var hookCalls int
	var summed wasp.WorkerMetrics
	pool, err := wasp.NewPool(g,
		wasp.Options{Algorithm: wasp.AlgoWasp, Workers: 2, Delta: 4},
		wasp.PoolOptions{
			Sessions: 2,
			Observe:  &wasp.ObserverConfig{},
			OnSolve: func(o wasp.SolveObservation) {
				hookCalls++
				if o.Observer == nil {
					t.Error("OnSolve without an observer on an observing pool")
					return
				}
				// The observer is quiescent here: exports must work.
				if err := o.Observer.WriteSummary(&bytes.Buffer{}); err != nil {
					t.Error(err)
				}
				tot := o.Observer.Totals()
				summed.Add(&tot)
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close(context.Background())

	const solves = 6
	for i := 0; i < solves; i++ {
		if _, err := pool.Run(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
	}
	if hookCalls != solves {
		t.Fatalf("OnSolve: %d calls, want %d", hookCalls, solves)
	}
	if summed.Relaxations == 0 {
		t.Fatal("observers saw no relaxations")
	}
}

// TestPoolObserveExclusiveWithOptionsObserver: a pool observes through
// PoolOptions.Observe only. NewPool rejects Options.Observer at every
// session count, with or without Observe, and a Registry whose Options
// carry one rejects the load with the pool's error, before any smoke
// solve.
func TestPoolObserveExclusiveWithOptionsObserver(t *testing.T) {
	g, err := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const want = "PoolOptions.Observe"
	for _, sessions := range []int{1, 2} {
		for _, observe := range []*wasp.ObserverConfig{nil, {}} {
			t.Run(fmt.Sprintf("sessions=%d/observe=%v", sessions, observe != nil), func(t *testing.T) {
				_, err := wasp.NewPool(g,
					wasp.Options{Observer: wasp.NewObserver(wasp.ObserverConfig{})},
					wasp.PoolOptions{Sessions: sessions, Observe: observe})
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("NewPool with Options.Observer: %v, want an error naming %s", err, want)
				}
			})
		}
	}
	t.Run("registry", func(t *testing.T) {
		r := wasp.NewRegistry(wasp.RegistryOptions{
			Options: wasp.Options{Observer: wasp.NewObserver(wasp.ObserverConfig{})},
		})
		defer r.Close(context.Background())
		err := r.LoadGraph(context.Background(), "g", g)
		if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "smoke solve") {
			t.Fatalf("LoadGraph with Options.Observer: %v, want the pool's error naming %s", err, want)
		}
	})
}
