package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"wasp"
	"wasp/internal/fault"
)

// TestRetryDisk pins the retry helper's contract: transient errors are
// retried up to the attempt budget, success stops the loop, and ENOSPC
// short-circuits immediately — a full disk is a mode change for the
// caller, not something millisecond backoffs can wait out.
func TestRetryDisk(t *testing.T) {
	calls := 0
	err := retryDisk(3, time.Microsecond, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("transient: err %v after %d calls, want nil after 3", err, calls)
	}

	calls = 0
	err = retryDisk(3, time.Microsecond, func() error {
		calls++
		return fmt.Errorf("save: %w", syscall.ENOSPC)
	})
	if !errors.Is(err, syscall.ENOSPC) || calls != 1 {
		t.Fatalf("ENOSPC: err %v after %d calls, want ENOSPC after exactly 1", err, calls)
	}

	calls = 0
	err = retryDisk(3, time.Microsecond, func() error {
		calls++
		return errors.New("persistent")
	})
	if err == nil || calls != 3 {
		t.Fatalf("persistent: err %v after %d calls, want the last error after 3", err, calls)
	}
}

// TestCheckpointSinkENOSPCDegradedMode: a full disk flips the tracker
// into the skip-everything degraded mode (never an error surfaced to
// serving), probe writes re-test the disk every probeEvery, and the
// first probe that lands re-enables checkpointing — the self-healing
// loop, driven end to end with injected ENOSPC.
func TestCheckpointSinkENOSPCDegradedMode(t *testing.T) {
	g := testGraph()
	c := newCkptTracker(t.TempDir())
	c.probeEvery = 20 * time.Millisecond
	sink := c.sinkFor("test")
	cp := testCheckpoint(g)

	fault.Activate(fault.NewPlan(fault.Config{Seed: 7, DiskWriteENOSPC: 1000}))
	defer fault.Deactivate()

	sink(cp)
	if !c.disabled.Load() {
		t.Fatal("ENOSPC did not disable checkpointing")
	}
	if got := c.writeErrs.Load(); got != 1 {
		t.Fatalf("writeErrs = %d, want 1", got)
	}

	// Inside the probe window every write is skipped without touching
	// the disk.
	sink(cp)
	sink(cp)
	if got := c.skippedWrites.Load(); got != 2 {
		t.Fatalf("skippedWrites = %d, want 2", got)
	}

	// A probe while the disk is still full fails and stays disabled.
	time.Sleep(c.probeEvery + 5*time.Millisecond)
	sink(cp)
	if !c.disabled.Load() {
		t.Fatal("failed probe re-enabled checkpointing")
	}
	if got := c.writeErrs.Load(); got != 2 {
		t.Fatalf("writeErrs after failed probe = %d, want 2", got)
	}

	// Space returns: the next probe succeeds and re-enables.
	fault.Deactivate()
	time.Sleep(c.probeEvery + 5*time.Millisecond)
	sink(cp)
	if c.disabled.Load() {
		t.Fatal("successful probe did not re-enable checkpointing")
	}
	if got := c.writes.Load(); got != 1 {
		t.Fatalf("writes = %d, want 1 (the probe)", got)
	}
	if _, err := os.Stat(c.path("test", cp.Source)); err != nil {
		t.Fatalf("probe write left no file: %v", err)
	}

	// And steady state is back: writes go straight through.
	sink(cp)
	if got := c.writes.Load(); got != 2 {
		t.Fatalf("writes after recovery = %d, want 2", got)
	}
}

// TestCheckpointSinkTransientWriteError: a write that keeps failing
// with a non-ENOSPC error burns its retries, bumps the error counter,
// and gives up on this snapshot only — checkpointing stays enabled and
// the next interval's write succeeds.
func TestCheckpointSinkTransientWriteError(t *testing.T) {
	g := testGraph()
	c := newCkptTracker(t.TempDir())
	sink := c.sinkFor("test")
	cp := testCheckpoint(g)

	fault.Activate(fault.NewPlan(fault.Config{Seed: 1, DiskWriteErr: 1000}))
	sink(cp)
	fault.Deactivate()

	if c.disabled.Load() {
		t.Fatal("transient write errors must not disable checkpointing")
	}
	if got := c.writeErrs.Load(); got != 1 {
		t.Fatalf("writeErrs = %d, want 1", got)
	}
	if got := c.writes.Load(); got != 0 {
		t.Fatalf("writes = %d, want 0", got)
	}

	sink(cp)
	if got := c.writes.Load(); got != 1 {
		t.Fatalf("writes after faults cleared = %d, want 1", got)
	}
}

// TestRecoveryReadFaultsNeverFatal: recovery reads retry transient
// faults, and a file whose reads keep failing is dropped — logged and
// counted, never fatal, never blocking the daemon from serving. Once
// the disk behaves, a clean file recovers normally.
func TestRecoveryReadFaultsNeverFatal(t *testing.T) {
	g := testGraph()
	dir := t.TempDir()
	file := filepath.Join(dir, "ckpt-test-0.wsck")
	if err := wasp.SaveCheckpoint(file, testCheckpoint(g)); err != nil {
		t.Fatal(err)
	}
	reg := newRegistry(t, "test", g, wasp.RegistryOptions{
		Options: wasp.Options{Workers: 2},
		Pool:    wasp.PoolOptions{Sessions: 1},
	})
	s := &server{reg: reg, ckpt: newCkptTracker(dir)}
	ctx := context.Background()

	fault.Activate(fault.NewPlan(fault.Config{Seed: 2, DiskReadErr: 1000}))
	s.recoverCheckpoints(ctx)
	fault.Deactivate()

	if got := s.ckpt.recovered.Load(); got != 0 {
		t.Fatalf("recovered = %d under all-reads-fail, want 0", got)
	}
	if _, err := os.Stat(file); !os.IsNotExist(err) {
		t.Fatalf("unreadable checkpoint not dropped: %v", err)
	}
	if !reg.Servable() {
		t.Fatal("registry stopped serving after recovery read faults")
	}

	// A clean disk: the same checkpoint recovers end to end.
	if err := wasp.SaveCheckpoint(file, testCheckpoint(g)); err != nil {
		t.Fatal(err)
	}
	s.recoverCheckpoints(ctx)
	if got := s.ckpt.recovered.Load(); got != 1 {
		t.Fatalf("recovered = %d after faults cleared, want 1", got)
	}
}

// TestScannerQuarantineBackoff drives the scanner's per-file failure
// handling: a failing bundle is quarantined (skipped without a load
// attempt, counted) until its jittered backoff elapses, retried after,
// and a stamp change — the producer republished — clears the
// quarantine immediately.
func TestScannerQuarantineBackoff(t *testing.T) {
	g := testGraph()
	dir := t.TempDir()
	path := filepath.Join(dir, "qg.wspb")
	publish := func(version uint64) {
		t.Helper()
		b := &wasp.Bundle{Manifest: wasp.BundleManifest{Name: "qg", Version: version}, Graph: g}
		if err := wasp.SaveBundle(path, b); err != nil {
			t.Fatal(err)
		}
		// Force a distinct stamp even when the write lands within the
		// filesystem's mtime granularity of the previous one.
		now := time.Now().Add(time.Duration(version) * time.Second)
		if err := os.Chtimes(path, now, now); err != nil {
			t.Fatal(err)
		}
	}
	publish(1)

	reg := newRegistry(t, "seed", wasp.FromEdges(2, true, []wasp.Edge{{From: 0, To: 1, W: 1}}),
		wasp.RegistryOptions{Options: wasp.Options{Workers: 2}, Pool: wasp.PoolOptions{Sessions: 1}})
	sc := newBundleScanner(reg, dir)
	sc.backoffBase = 30 * time.Millisecond
	sc.backoffMax = 60 * time.Millisecond
	ctx := context.Background()

	fault.Activate(fault.NewPlan(fault.Config{Seed: 5, BundleLoadErr: 1000}))
	defer fault.Deactivate()

	if loaded, rejected := sc.rescan(ctx); loaded != 0 || rejected != 1 {
		t.Fatalf("poisoned rescan: loaded %d rejected %d, want 0/1", loaded, rejected)
	}
	if len(sc.errors()) != 1 {
		t.Fatalf("errors() = %v, want one entry", sc.errors())
	}

	// Quarantined: the immediate rescan skips the file entirely — no
	// load attempt, no rejection, one counted skip.
	if loaded, rejected := sc.rescan(ctx); loaded != 0 || rejected != 0 {
		t.Fatalf("quarantined rescan: loaded %d rejected %d, want 0/0", loaded, rejected)
	}
	if got := sc.quarantineSkips(); got != 1 {
		t.Fatalf("quarantineSkips = %d, want 1", got)
	}

	// The backoff elapses: the unchanged stamp is re-attempted (and
	// fails again, doubling the quarantine).
	time.Sleep(sc.backoffMax + sc.backoffMax/2 + 10*time.Millisecond)
	if loaded, rejected := sc.rescan(ctx); loaded != 0 || rejected != 1 {
		t.Fatalf("post-backoff rescan: loaded %d rejected %d, want 0/1", loaded, rejected)
	}

	// The producer republishes while the quarantine is fresh: the stamp
	// change forgives the history and the new content is attempted
	// immediately, no backoff wait.
	publish(2)
	if loaded, rejected := sc.rescan(ctx); loaded != 0 || rejected != 1 {
		t.Fatalf("republish-under-faults rescan: loaded %d rejected %d, want 0/1", loaded, rejected)
	}

	// The fault clears and the producer republishes: loads on the first
	// attempt, quarantine and rejection record cleared.
	fault.Deactivate()
	publish(3)
	if loaded, rejected := sc.rescan(ctx); loaded != 1 || rejected != 0 {
		t.Fatalf("healed rescan: loaded %d rejected %d, want 1/0", loaded, rejected)
	}
	if len(sc.errors()) != 0 {
		t.Fatalf("errors() after success = %v, want empty", sc.errors())
	}
	if _, ok := reg.Status("qg"); !ok {
		t.Fatal("healed bundle not registered")
	}
}

// TestScannerForgetsRemovedFiles rejects a corrupt bundle, deletes it
// and rescans: the deleted file's rejection leaves errors() (the
// /admin/reload response) and its stamp and quarantine are dropped.
func TestScannerForgetsRemovedFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.wspb")
	if err := os.WriteFile(path, []byte("not a bundle"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := newRegistry(t, "seed", wasp.FromEdges(2, true, []wasp.Edge{{From: 0, To: 1, W: 1}}),
		wasp.RegistryOptions{Options: wasp.Options{Workers: 2}, Pool: wasp.PoolOptions{Sessions: 1}})
	sc := newBundleScanner(reg, dir)
	ctx := context.Background()
	if loaded, rejected := sc.rescan(ctx); loaded != 0 || rejected != 1 {
		t.Fatalf("corrupt rescan: loaded %d rejected %d, want 0/1", loaded, rejected)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if loaded, rejected := sc.rescan(ctx); loaded != 0 || rejected != 0 {
		t.Fatalf("rescan after delete: loaded %d rejected %d, want 0/0", loaded, rejected)
	}
	if errs := sc.errors(); len(errs) != 0 {
		t.Fatalf("errors() after delete = %v, want empty", errs)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if len(sc.seen) != 0 || len(sc.quar) != 0 {
		t.Fatalf("after delete: %d seen and %d quarantined entries, want none", len(sc.seen), len(sc.quar))
	}
}
