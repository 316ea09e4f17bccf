// Package gapds implements the GAP Benchmarking Suite's Δ-stepping
// (Beamer, Asanović, Patterson), the paper's principal synchronous
// baseline: thread-local bins, a shared frontier array processed with
// dynamic scheduling, bulk-synchronous steps separated by barriers, and
// the bucket-fusion optimization (Zhang et al., CGO 2020) in which each
// worker keeps draining its own current-bucket bin after finishing its
// share of the frontier, saving synchronization rounds.
//
// Barrier wait time is recorded per worker; the paper's Figure 1 plots
// exactly this overhead for GAP across the graph suite.
package gapds

import (
	"sync/atomic"
	"time"

	"wasp/internal/barrier"
	"wasp/internal/dist"
	"wasp/internal/graph"
	"wasp/internal/metrics"
	"wasp/internal/parallel"
)

// Options configures a run.
type Options struct {
	Delta   uint32 // Δ-coarsening factor (0 → 1)
	Workers int    // worker count (0 → 1)
	// NoBucketFusion disables the bucket-fusion optimization, leaving
	// plain synchronous Δ-stepping (used by the fig1 ablation).
	NoBucketFusion bool
	// KLevels extends bucket fusion across k consecutive priority
	// levels between barriers, in the spirit of the KLA paradigm
	// (Harshvardhan et al., PACT 2014; Wasp paper §6): k = 1 is plain
	// bucket fusion, larger k trades priority drift for fewer
	// barriers. 0 → 1.
	KLevels int
	// Metrics, when non-nil, receives relaxation counts and barrier
	// wait times (≥ Workers entries).
	Metrics *metrics.Set
	// Cancel, when non-nil, is polled at step boundaries (and inside
	// long frontier scans, where it skips straight to the barrier so
	// every worker exits at the same synchronized point). A non-nil
	// token also arms panic containment in parallel.Run.
	Cancel *parallel.Token
}

// Result carries the distances and the number of synchronous steps.
type Result struct {
	Dist  []uint32
	Steps int64
}

const grain = 64

// Run computes SSSP from source with synchronous Δ-stepping.
func Run(g *graph.Graph, source graph.Vertex, opt Options) *Result {
	p := opt.Workers
	if p <= 0 {
		p = 1
	}
	delta := opt.Delta
	if delta == 0 {
		delta = 1
	}
	m := opt.Metrics
	if m == nil || len(m.Workers) < p {
		m = metrics.NewSet(p)
	}

	d := dist.New(g.NumVertices(), source)
	bins := make([][][]uint32, p) // bins[worker][bucket] = vertices
	bar := barrier.New(p)

	// Step-shared state, written by worker 0 between barriers.
	var (
		frontier []uint32
		bucket   uint64
		cursor   atomic.Int64
		done     bool
		steps    int64
	)
	frontier = []uint32{uint32(source)}

	ensure := func(w int, idx uint64) {
		for uint64(len(bins[w])) <= idx {
			bins[w] = append(bins[w], nil)
		}
	}

	kLevels := uint64(opt.KLevels)
	if kLevels == 0 {
		kLevels = 1
	}

	tok := opt.Cancel
	parallel.Run(p, tok, func(w int) {
		// A worker panicking between barriers would strand its siblings
		// in Wait forever; break the barrier before the panic unwinds
		// into parallel.Run's containment so the survivors drain.
		defer func() {
			if r := recover(); r != nil {
				tok.Cancel()
				bar.Break()
				panic(r)
			}
		}()
		mw := &m.Workers[w]
		relaxAt := func(u uint32, level uint64) {
			if uint64(d.Get(u)) < level*uint64(delta) {
				mw.StaleSkips++
				return // stale: u re-bucketed below its entry's level
			}
			dst, wts := g.OutNeighbors(graph.Vertex(u))
			for i, v := range dst {
				mw.Relaxations++
				nd, ok := d.Relax(graph.Vertex(u), v, wts[i])
				if !ok {
					continue
				}
				mw.Improvements++
				idx := uint64(nd) / uint64(delta)
				ensure(w, idx)
				bins[w][idx] = append(bins[w][idx], uint32(v))
			}
		}
		for {
			if bar.Broken() {
				return // a sibling panicked: step-shared state is off-limits
			}
			// Dynamic share of the shared frontier. On cancellation,
			// skip the remaining work and fall through to the barrier:
			// workers must not exit unilaterally or the barrier would
			// strand the others.
			for !tok.Cancelled() {
				start := int(cursor.Add(grain)) - grain
				if start >= len(frontier) {
					break
				}
				end := start + grain
				if end > len(frontier) {
					end = len(frontier)
				}
				for _, u := range frontier[start:end] {
					relaxAt(u, bucket)
				}
			}
			// Bucket fusion: drain the worker's own bins for the next
			// kLevels priority levels without synchronizing (GAP's
			// optimization at k=1; the KLA extension beyond).
			if !opt.NoBucketFusion {
				for !tok.Cancelled() {
					drained := false
					for lvl := bucket; lvl < bucket+kLevels && lvl < uint64(len(bins[w])); lvl++ {
						for len(bins[w][lvl]) > 0 {
							mine := bins[w][lvl]
							bins[w][lvl] = nil
							drained = true
							for _, u := range mine {
								relaxAt(u, lvl)
							}
						}
					}
					if !drained {
						break
					}
				}
			}

			waitTimed(bar, mw)
			if w == 0 {
				steps++
				bucket, frontier, done = gather(bins, bucket)
				cursor.Store(0)
				if tok.Cancelled() {
					done = true // synchronized exit for all workers
				}
			}
			waitTimed(bar, mw)
			if bar.Broken() {
				return
			}
			if done {
				return
			}
		}
	})
	return &Result{Dist: d.Snapshot(), Steps: steps}
}

// waitTimed records the barrier wait in the worker's metrics.
func waitTimed(bar *barrier.Barrier, mw *metrics.Worker) {
	start := time.Now()
	bar.Wait()
	mw.BarrierNS += int64(time.Since(start))
}

// gather finds the lowest non-empty bin at or above the current bucket
// across all workers and concatenates it into the next frontier.
func gather(bins [][][]uint32, bucket uint64) (uint64, []uint32, bool) {
	next := ^uint64(0)
	for w := range bins {
		for idx := bucket; idx < uint64(len(bins[w])); idx++ {
			if len(bins[w][idx]) > 0 && idx < next {
				next = idx
				break
			}
		}
	}
	if next == ^uint64(0) {
		return bucket, nil, true
	}
	var frontier []uint32
	for w := range bins {
		if next < uint64(len(bins[w])) {
			frontier = append(frontier, bins[w][next]...)
			bins[w][next] = nil
		}
	}
	return next, frontier, false
}
