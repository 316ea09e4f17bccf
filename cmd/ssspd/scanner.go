package main

import (
	"context"
	"log"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"wasp"
)

// bundleScanner watches a directory of .wspb bundles and feeds changed
// files to the registry. There is deliberately no inotify dependency —
// a periodic stat-based rescan is portable, cheap at the scale of a
// bundle directory, and composes with the atomic rename producers use
// to publish bundles (a rescan only ever sees complete files).
//
// A file is re-attempted when its (size, mtime) stamp changes —
// republishing the file (even with identical bytes — rename updates
// mtime) always triggers a fresh attempt. The registry's own version
// check turns redundant loads of an unchanged bundle into no-ops.
//
// A failing file is quarantined: after each rejection it is skipped
// until a jittered exponential backoff (backoffBase doubling per
// consecutive failure, capped at backoffMax) elapses, then re-attempted
// even with an unchanged stamp — so a transient read fault heals on
// its own, a persistently corrupt bundle costs one load per backoff
// period instead of one per tick, and the rejection log line appears
// once per attempt rather than once per tick. A stamp change clears
// the quarantine immediately: the producer published a fix.
type bundleScanner struct {
	reg *wasp.Registry
	dir string

	backoffBase time.Duration // first quarantine period (default 1s)
	backoffMax  time.Duration // quarantine period cap (default 60s)

	mu      sync.Mutex
	seen    map[string]fileStamp
	lastErr map[string]string     // last rejection per path, cleared on success
	quar    map[string]*quarEntry // failing files under backoff

	quarantined atomic.Int64 // rescan skips of quarantined files
}

type fileStamp struct {
	size  int64
	mtime time.Time
}

// quarEntry tracks one failing bundle file's backoff state.
type quarEntry struct {
	failures int       // consecutive rejections
	until    time.Time // skip the file before this instant
	stamp    fileStamp // the stamp that failed; a change resets the entry
}

func newBundleScanner(reg *wasp.Registry, dir string) *bundleScanner {
	return &bundleScanner{
		reg:         reg,
		dir:         dir,
		backoffBase: time.Second,
		backoffMax:  time.Minute,
		seen:        make(map[string]fileStamp),
		lastErr:     make(map[string]string),
		quar:        make(map[string]*quarEntry),
	}
}

// rescan walks the directory once, loading every new or changed
// bundle. Rejections are recorded and logged, never fatal: the
// registry keeps serving whatever was last good.
func (sc *bundleScanner) rescan(ctx context.Context) (loaded, rejected int) {
	files, err := filepath.Glob(filepath.Join(sc.dir, "*.wspb"))
	if err != nil {
		log.Printf("bundle scan: %v", err)
		return 0, 0
	}
	sc.forgetMissing(files)
	now := time.Now()
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			continue // racing a producer's rename; next tick sees it
		}
		stamp := fileStamp{size: fi.Size(), mtime: fi.ModTime()}
		sc.mu.Lock()
		q := sc.quar[f]
		if q != nil && q.stamp != stamp {
			// The producer republished: forgive the history and attempt
			// the new content immediately.
			delete(sc.quar, f)
			q = nil
		}
		changed := sc.seen[f] != stamp
		sc.seen[f] = stamp
		// A quarantined file whose backoff has elapsed is re-attempted
		// even with an unchanged stamp: transient faults (a flaky read)
		// leave the stamp intact, and only a retry can clear them.
		retry := q != nil && !now.Before(q.until)
		if q != nil && !retry {
			sc.quarantined.Add(1)
		}
		sc.mu.Unlock()
		if !changed && !retry {
			continue
		}
		name, version, err := sc.reg.LoadFile(ctx, f)
		sc.mu.Lock()
		if err != nil {
			sc.lastErr[f] = err.Error()
			rejected++
			failures := 1
			if q != nil {
				failures = q.failures + 1
			}
			sc.quar[f] = &quarEntry{
				failures: failures,
				until:    now.Add(sc.backoff(failures)),
				stamp:    stamp,
			}
			q = sc.quar[f]
		} else {
			delete(sc.lastErr, f)
			delete(sc.quar, f)
			loaded++
		}
		sc.mu.Unlock()
		if err != nil {
			log.Printf("bundle %s rejected: %v (quarantined %v after %d failure(s))",
				f, err, q.until.Sub(now).Round(time.Millisecond), q.failures)
		} else {
			log.Printf("bundle %s: %s v%d", f, name, version)
		}
	}
	return loaded, rejected
}

// forgetMissing drops the stamp, rejection and quarantine of every
// path the scan no longer finds, so a deleted bundle's rejection
// leaves errors() and the maps stay bounded by the directory.
func (sc *bundleScanner) forgetMissing(files []string) {
	found := make(map[string]bool, len(files))
	for _, f := range files {
		found[f] = true
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for f := range sc.seen { // lastErr and quar only hold seen paths
		if !found[f] {
			delete(sc.seen, f)
			delete(sc.lastErr, f)
			delete(sc.quar, f)
		}
	}
}

// backoff computes the jittered quarantine period after the n-th
// consecutive failure: base·2^(n-1) capped at backoffMax, ±50% jitter
// so a directory of files poisoned together does not retry in
// lockstep.
func (sc *bundleScanner) backoff(n int) time.Duration {
	d := sc.backoffBase
	for i := 1; i < n && d < sc.backoffMax; i++ {
		d *= 2
	}
	if d > sc.backoffMax {
		d = sc.backoffMax
	}
	return d/2 + rand.N(d)
}

// quarantineSkips reports how many rescan visits skipped a file under
// quarantine backoff — the ssspd_reloads_total{outcome="quarantined"}
// feed.
func (sc *bundleScanner) quarantineSkips() int64 { return sc.quarantined.Load() }

// run rescans every interval until ctx is cancelled.
func (sc *bundleScanner) run(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			sc.rescan(ctx)
		}
	}
}

// errors snapshots the per-path rejection messages.
func (sc *bundleScanner) errors() map[string]string {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make(map[string]string, len(sc.lastErr))
	for k, v := range sc.lastErr {
		out[k] = v
	}
	return out
}

// handleAdminReload serves POST /admin/reload: with ?path= it loads
// that one bundle file; without, it rescans the -graphs directory.
// The response reports what happened; a rejected bundle is a 422 with
// the validation error, and the last good version keeps serving.
func (s *server) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if path := r.URL.Query().Get("path"); path != "" {
		name, version, err := s.reg.LoadFile(r.Context(), path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		writeJSON(w, map[string]any{"graph": name, "version": version})
		return
	}
	if s.scan == nil {
		http.Error(w, "no -graphs directory configured; pass path=", http.StatusBadRequest)
		return
	}
	loaded, rejected := s.scan.rescan(r.Context())
	writeJSON(w, map[string]any{
		"loaded":   loaded,
		"rejected": rejected,
		"errors":   s.scan.errors(),
	})
}

// handleAdminRollback serves POST /admin/rollback?graph=G: re-activate
// G's most recently retired version.
func (s *server) handleAdminRollback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	name := r.URL.Query().Get("graph")
	if name == "" {
		http.Error(w, "graph parameter required", http.StatusBadRequest)
		return
	}
	version, err := s.reg.Rollback(r.Context(), name)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if _, ok := s.reg.Status(name); !ok {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, map[string]any{"graph": name, "version": version})
}
