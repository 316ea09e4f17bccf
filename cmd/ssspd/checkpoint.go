package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wasp"
)

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
	skipped   atomic.Int64 // recovery files dropped for an unregistered graph or a shape/fingerprint mismatch

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
// forensics and invisible to every producer/consumer glob. Graph names
// may contain dashes, so a file is matched by its parsed graph name,
// never by a ckpt-<graph>-* prefix that would also match a sibling
// such as <graph>-usa.
func (c *ckptTracker) distrust(graph string) int {
	files, err := filepath.Glob(filepath.Join(c.dir, "ckpt-*.wsck"))
	if err != nil {
		return 0
	}
	n := 0
	for _, f := range files {
		if g, _, ok := parseCkptName(filepath.Base(f)); ok && g == graph && os.Rename(f, f+".bad") == nil {
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
