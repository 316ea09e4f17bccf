package wasp_test

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wasp"
	"wasp/internal/fault"
)

// ckptWorkload builds a graph big enough that a multi-millisecond
// solve gives periodic checkpoints something to capture.
func ckptWorkload(t testing.TB, n int, seed uint64) (*wasp.Graph, wasp.Vertex) {
	t.Helper()
	g, err := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g, wasp.SourceInLargestComponent(g, seed)
}

// upperBoundOf degrades exact distances into a mid-solve-shaped seed:
// every k-th vertex is knocked back to ∞, the rest keep their true
// (hence real-path) distances.
func upperBoundOf(dist []uint32, src wasp.Vertex, k int) []uint32 {
	out := append([]uint32(nil), dist...)
	for i := range out {
		if i%k == 0 && wasp.Vertex(i) != src {
			out[i] = wasp.Infinity
		}
	}
	return out
}

// TestSessionPeriodicCheckpointAndResume: a supervised session emits
// snapshots that survive a save/load round trip and warm-start a
// second session to the exact fresh-solve distances — the whole
// recovery pipeline, in process.
func TestSessionPeriodicCheckpointAndResume(t *testing.T) {
	g, src := ckptWorkload(t, 400_000, 5)

	var got []*wasp.Checkpoint
	opt := wasp.Options{
		Workers:            4,
		CheckpointInterval: 2 * time.Millisecond,
		CheckpointSink: func(cp *wasp.Checkpoint) {
			// The sink contract: the snapshot's buffer is reused after
			// return, so retain a copy.
			c := *cp
			c.Dist = append([]uint32(nil), cp.Dist...)
			got = append(got, &c)
		},
	}
	sess, err := wasp.NewSession(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), src)
	if err != nil || !res.Complete {
		t.Fatalf("supervised run: %v (res %+v)", err, res)
	}
	if len(got) == 0 {
		t.Skip("solve finished before the first checkpoint tick; nothing to verify")
	}

	cp := got[len(got)-1]
	if err := cp.Matches(g.NumVertices(), g.NumEdges(), g.Directed(), g.WeightFingerprint()); err != nil {
		t.Fatalf("emitted checkpoint does not match its own graph: %v", err)
	}
	if cp.Source != uint32(src) || cp.Settled() == 0 || cp.Elapsed <= 0 {
		t.Fatalf("checkpoint metadata wrong: %+v", cp)
	}

	// Through the on-disk codec, as a real recovery would go.
	path := filepath.Join(t.TempDir(), "cp.wsck")
	if err := wasp.SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	loaded, err := wasp.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := wasp.NewSession(g, wasp.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := fresh.Resume(context.Background(), loaded)
	if err != nil || !resumed.Complete {
		t.Fatalf("resume: %v", err)
	}
	for i := range res.Dist {
		if res.Dist[i] != resumed.Dist[i] {
			t.Fatalf("dist[%d]: fresh %d, resumed %d", i, res.Dist[i], resumed.Dist[i])
		}
	}
	if resumed.Elapsed <= loaded.Elapsed {
		t.Fatalf("resumed Elapsed %v did not continue from checkpoint's %v", resumed.Elapsed, loaded.Elapsed)
	}
}

// TestStallWatchdog: a solve wedged at the starting line (every worker
// parked on a fault-injection block) must be detected, diagnosed and
// killed: Run returns ErrStalled wrapping a per-worker state dump, the
// sink receives one forced checkpoint, and the partial result honors
// the upper-bound contract.
func TestStallWatchdog(t *testing.T) {
	g, src := ckptWorkload(t, 50_000, 3)

	plan := fault.NewPlan(fault.Config{Seed: 2, BlockOnHit: 1, BlockPoint: fault.SolveStart})
	fault.Activate(plan)
	defer fault.Deactivate()
	defer plan.Unblock()

	forced := make(chan *wasp.Checkpoint, 4)
	opt := wasp.Options{
		Workers:      2,
		StallTimeout: 60 * time.Millisecond,
		CheckpointSink: func(cp *wasp.Checkpoint) {
			select {
			case forced <- cp:
			default:
			}
		},
		// No CheckpointInterval: the only sink call is the watchdog's.
	}
	sess, err := wasp.NewSession(g, opt)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		res *wasp.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := sess.Run(context.Background(), src)
		done <- outcome{res, err}
	}()

	// The watchdog's forced checkpoint is the signal that it fired;
	// only then may the parked workers be released to drain.
	select {
	case cp := <-forced:
		if cp.Source != uint32(src) {
			t.Errorf("forced checkpoint source %d, want %d", cp.Source, src)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog never fired")
	}
	plan.Unblock()

	out := <-done
	if !errors.Is(out.err, wasp.ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", out.err)
	}
	if !strings.Contains(out.err.Error(), "worker 0:") || !strings.Contains(out.err.Error(), "goroutines:") {
		t.Fatalf("stall error carries no worker dump:\n%v", out.err)
	}
	if out.res == nil || out.res.Complete {
		t.Fatalf("stalled run returned %+v, want a partial result", out.res)
	}
}

// TestStallWatchdogQuietOnHealthySolve: a generous timeout must never
// misfire on a solve that is merely working.
func TestStallWatchdogQuietOnHealthySolve(t *testing.T) {
	g, src := ckptWorkload(t, 100_000, 9)
	sess, err := wasp.NewSession(g, wasp.Options{Workers: 4, StallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), src)
	if err != nil || !res.Complete {
		t.Fatalf("healthy supervised solve failed: %v", err)
	}
}

// TestWarmStartValidation: every way to hand a checkpoint to the wrong
// solve must fail fast with a descriptive error, not converge to
// garbage.
func TestWarmStartValidation(t *testing.T) {
	g, err := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	other, err := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := wasp.SourceInLargestComponent(g, 1)
	base, err := wasp.Run(g, src, wasp.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cp := &wasp.Checkpoint{
		Source:        uint32(src),
		GraphVertices: g.NumVertices(),
		GraphEdges:    g.NumEdges(),
		Directed:      g.Directed(),
		WeightFP:      g.WeightFingerprint(),
		Dist:          base.Dist,
	}

	ctx := context.Background()

	// A session that cannot seed a solve (the one-shot fallback path).
	dijkstraSess, err := wasp.NewSession(g, wasp.Options{Algorithm: wasp.AlgoDijkstra})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dijkstraSess.Resume(ctx, cp); err == nil {
		t.Error("wrong algorithm: accepted")
	}
	otherSess, err := wasp.NewSession(other, wasp.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := otherSess.Resume(ctx, cp); err == nil {
		t.Error("mismatched graph: accepted")
	}
	if _, err := otherSess.Resume(ctx, nil); err == nil {
		t.Error("Resume accepted a nil checkpoint")
	}
	if _, err := wasp.NewSession(g, wasp.Options{
		Algorithm: wasp.AlgoDijkstra, StallTimeout: time.Second,
	}); err == nil {
		t.Error("NewSession accepted supervision on a non-wasp algorithm")
	}

	// And the happy path: a valid warm start through the public API is
	// exact.
	warm := &wasp.Checkpoint{
		Source:        uint32(src),
		GraphVertices: g.NumVertices(),
		GraphEdges:    g.NumEdges(),
		Directed:      g.Directed(),
		WeightFP:      g.WeightFingerprint(),
		Elapsed:       time.Millisecond,
		Dist:          upperBoundOf(base.Dist, src, 3),
	}
	sess, err := wasp.NewSession(g, wasp.Options{Workers: 2, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Resume(ctx, warm)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Dist {
		if res.Dist[i] != base.Dist[i] {
			t.Fatalf("dist[%d]: warm %d != cold %d", i, res.Dist[i], base.Dist[i])
		}
	}
	if res.Elapsed < time.Millisecond {
		t.Fatalf("warm Elapsed %v did not include the checkpoint's time", res.Elapsed)
	}
}

// TestPoolResume: a pool resumes a checkpoint through the normal
// admission path and returns the exact distances, detached from pool
// storage.
func TestPoolResume(t *testing.T) {
	g, err := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 5000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	src := wasp.SourceInLargestComponent(g, 8)
	pool, err := wasp.NewPool(g, wasp.Options{Workers: 2}, wasp.PoolOptions{Sessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close(context.Background())

	base, err := pool.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	cp := &wasp.Checkpoint{
		Source:        uint32(src),
		GraphVertices: g.NumVertices(),
		GraphEdges:    g.NumEdges(),
		Directed:      g.Directed(),
		WeightFP:      g.WeightFingerprint(),
		Dist:          upperBoundOf(base.Dist, src, 2),
	}
	res, err := pool.Resume(context.Background(), cp)
	if err != nil || !res.Complete {
		t.Fatalf("pool resume: %v", err)
	}
	for i := range base.Dist {
		if res.Dist[i] != base.Dist[i] {
			t.Fatalf("dist[%d]: resumed %d != fresh %d", i, res.Dist[i], base.Dist[i])
		}
	}

	if _, err := pool.Resume(context.Background(), nil); err == nil {
		t.Error("pool accepted a nil checkpoint")
	}
	bad := *cp
	bad.GraphVertices++
	if _, err := pool.Resume(context.Background(), &bad); err == nil {
		t.Error("pool accepted a mismatched checkpoint")
	}
}
