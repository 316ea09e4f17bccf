// Package relaxed runs parallel Dijkstra's algorithm over any relaxed
// concurrent priority queue exposing the Queue interface. It is the one
// pop–relax–push loop behind the paper's asynchronous baselines: the
// MultiQueue parallel Dijkstra (§2, Figure 2, internal/mq), Galois's
// OBIM Δ-stepping (§2, internal/obim), and the §6 extension queues, the
// Stealing MultiQueue (internal/smq) and the Multi Bucket Queue
// (internal/mbq). Workers independently pop (approximately) minimal
// vertices, relax their edges and push updates; stale queue entries are
// skipped against the distance array.
//
// When Options.Timing is set, the time spent inside queue operations is
// accumulated per worker — the paper's Figure 2 shows this "queue ops"
// share at 20–30% of execution time across the graph suite.
package relaxed

import (
	"runtime"
	"sync/atomic"
	"time"

	"wasp/internal/dist"
	"wasp/internal/graph"
	"wasp/internal/heap"
	"wasp/internal/metrics"
	"wasp/internal/parallel"
)

// Handle is one worker's queue accessor.
type Handle interface {
	Push(heap.Item)
	Pop() (heap.Item, bool)
}

// Queue is a relaxed concurrent priority queue usable by the driver.
// Termination rests on two rules every implementation keeps:
//   - a handle's Pop returns every item that handle buffers before it
//     fails, so a worker never stops while holding work;
//   - Empty reports whether other workers can see any work: it is false
//     whenever an item is visible to a handle other than its pusher's
//     (it may also count items a handle still buffers privately).
//
// A queue whose Empty ignores private buffers lets a worker stop while
// another still holds work; that costs parallelism, never distances.
type Queue interface {
	NewHandle(id int) Handle
	Empty() bool
}

// Options configures a run.
type Options struct {
	Workers int
	Metrics *metrics.Set
	// Cancel, when non-nil, is polled before every pop; a cancelled run
	// returns the partial distances. Also arms panic containment in
	// parallel.Run.
	Cancel *parallel.Token
	// Timing records the time of every Pop and Push in the workers'
	// QueueOpNS (Figure 2).
	Timing bool
}

// Run computes SSSP from source over the given queue.
func Run(g *graph.Graph, source graph.Vertex, q Queue, opt Options) []uint32 {
	p := opt.Workers
	if p <= 0 {
		p = 1
	}
	m := opt.Metrics
	if m == nil || len(m.Workers) < p {
		m = metrics.NewSet(p)
	}

	d := dist.New(g.NumVertices(), source)

	// The source is seeded by worker 0's own handle: queues with
	// thread-local storage (the SMQ's heaps, OBIM's local chunks) would
	// otherwise strand the seed in a handle nobody drains. The seeded
	// latch keeps other workers from passing the termination check
	// before the seed lands.
	tok := opt.Cancel
	var seeded atomic.Bool
	// inFlight counts workers between a pop attempt and the completion
	// of the popped item's relaxations; see the termination check below.
	var inFlight atomic.Int64
	parallel.Run(p, tok, func(w int) {
		h := q.NewHandle(w)
		mw := &m.Workers[w]
		if opt.Timing {
			h = timedHandle{h, &mw.QueueOpNS}
		}
		if w == 0 {
			h.Push(heap.Item{Prio: 0, Vertex: uint32(source)})
			seeded.Store(true)
		}
		for {
			if tok.Cancelled() {
				return // workers exit unilaterally: no barrier to respect
			}
			inFlight.Add(1)
			it, ok := h.Pop()
			if ok {
				u := graph.Vertex(it.Vertex)
				if uint64(d.Get(u)) < it.Prio {
					mw.StaleSkips++
					inFlight.Add(-1)
					continue
				}
				dst, wts := g.OutNeighbors(u)
				for i, v := range dst {
					mw.Relaxations++
					nd, improved := d.Relax(u, v, wts[i])
					if !improved {
						continue
					}
					mw.Improvements++
					h.Push(heap.Item{Prio: uint64(nd), Vertex: uint32(v)})
				}
				inFlight.Add(-1)
				continue
			}
			inFlight.Add(-1)
			// Termination: the failed Pop drained this worker's own
			// buffers, Empty covers every item another worker could
			// take, and an item between pop and its last push is
			// covered by its holder's inFlight increment (taken before
			// the pop). Empty→inFlight==0→Empty observed in this order
			// therefore passes only when no visible work is left; work
			// a handle still buffers privately stays with its owner,
			// which drains it before it can stop.
			if seeded.Load() && q.Empty() && inFlight.Load() == 0 && q.Empty() {
				return
			}
			runtime.Gosched()
		}
	})
	return d.Snapshot()
}

// timedHandle adds the time of each queue operation to *ns.
type timedHandle struct {
	h  Handle
	ns *int64
}

func (t timedHandle) Push(it heap.Item) {
	t0 := time.Now()
	t.h.Push(it)
	*t.ns += int64(time.Since(t0))
}

func (t timedHandle) Pop() (heap.Item, bool) {
	t0 := time.Now()
	it, ok := t.h.Pop()
	*t.ns += int64(time.Since(t0))
	return it, ok
}
