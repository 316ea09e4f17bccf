package core

// Tests of the per-vertex relaxation paths: the one-pass bidirectional
// relaxation of small undirected neighborhoods, the plain push it
// falls back to, and the work counters a single-worker solve pins.

import (
	"sync/atomic"
	"testing"

	"wasp/internal/dist"
	"wasp/internal/gen"
	"wasp/internal/graph"
	"wasp/internal/metrics"
)

// TestSingleWorkerWorkCountersPinned pins the work a 1-worker Δ=1
// solve does on six models, bidirectional relaxation on. One worker
// never steals and processes its entries in a fixed order, so these
// counters are deterministic, and a change to the relaxation path that
// alters a relaxation, an improvement, a stale skip or a bucket
// advance shows here. The values were recorded with the two-pass pull
// (a pull over the neighbors, then one dist.Relax per arc) that the
// one-pass relaxBidirectional replaced.
func TestSingleWorkerWorkCountersPinned(t *testing.T) {
	for _, tc := range []struct {
		model                                      string
		relaxations, improvements, stale, advances int64
	}{
		{"road-usa", 64077, 21464, 5081, 6549},
		{"kron", 225609, 24145, 13172, 272},
		{"mawi", 19579, 16724, 341, 269},
		{"urand", 261996, 39341, 22958, 360},
		{"twitter", 225853, 24143, 13197, 299},
		{"kmer", 35911, 16902, 519, 3268},
	} {
		t.Run(tc.model, func(t *testing.T) {
			g, err := gen.Generate(tc.model, gen.Config{N: 1 << 14, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			src := graph.SourceInLargestComponent(g, 1)
			m := metrics.NewSet(1)
			Run(g, src, Options{Workers: 1, Delta: 1, Metrics: m})
			w := m.Workers[0]
			got := [4]int64{w.Relaxations, w.Improvements, w.StaleSkips, w.BucketAdvances}
			want := [4]int64{tc.relaxations, tc.improvements, tc.stale, tc.advances}
			if got != want {
				t.Fatalf("relaxations, improvements, stale skips, advances = %v, want %v", got, want)
			}
		})
	}
}

// loneWorker is a single worker over g solving from source 0, with the
// given distances set (every other vertex unreached) and leaves as its
// leaf bitmap.
func loneWorker(g *graph.Graph, dists map[uint32]uint32, leaves *graph.Bitmap, opt Options) *worker {
	d := dist.New(g.NumVertices(), 0)
	for v, dv := range dists {
		d.RelaxTo(graph.Vertex(v), dv)
	}
	opt.Workers = 1
	opt = opt.withDefaults()
	m := metrics.NewSet(1)
	ws := make([]*worker, 1)
	ws[0] = newWorker(0, g, d, leaves, opt, ws, new(atomic.Int64), new(atomic.Int32), &m.Workers[0])
	return ws[0]
}

// queued drains the worker's current-bucket buffer and local buckets
// and returns every queued vertex with the level it was queued at.
func queued(w *worker) map[uint32]uint64 {
	q := map[uint32]uint64{}
	for v, ok := w.buf.Pop(); ok; v, ok = w.buf.Pop() {
		q[v] = w.currLoc
	}
	for prio := range w.buckets {
		for c := w.buckets[prio].Pop(); c != nil; c = w.buckets[prio].Pop() {
			for v, ok := c.Pop(); ok; v, ok = c.Pop() {
				q[v] = uint64(prio)
			}
		}
	}
	return q
}

// TestRelaxBidirectionalOnePass: on an undirected degree-5 vertex the
// pull lowers u through its best neighbor, and the push from u's new
// distance improves and queues only the neighbors it beats. A neighbor
// whose distance is already at most the candidate is neither improved
// nor queued, and an improved leaf is not queued.
func TestRelaxBidirectionalOnePass(t *testing.T) {
	// u = 1 with neighbors 0 (w 2), 2 (w 1), 3 (w 5), 4 (w 1), 5 (w 4).
	g := graph.FromEdges(6, false, []graph.Edge{
		{From: 1, To: 0, W: 2}, {From: 1, To: 2, W: 1}, {From: 1, To: 3, W: 5},
		{From: 1, To: 4, W: 1}, {From: 1, To: 5, W: 4},
	})
	leaves := graph.NewBitmap(6)
	leaves.Set(4)
	w := loneWorker(g, map[uint32]uint32{0: 0, 1: 10, 3: 7, 5: 3}, leaves, Options{Delta: 1})
	w.processEntry(1, 10, 0, 0)

	// The pull: 0 + 2 < 10. The push from 2: vertex 2 (∞ → 3) is
	// queued, 4 (∞ → 3) is improved but a leaf, 3 (7 = 2 + 5) and 5
	// (3 < 2 + 4) are not improved, and 0 never is.
	wantDist := []uint32{0, 2, 3, 7, 3, 3}
	for v, want := range wantDist {
		if got := w.d.Get(graph.Vertex(v)); got != want {
			t.Fatalf("d[%d] = %d, want %d", v, got, want)
		}
	}
	if w.m.Relaxations != 5 || w.m.Improvements != 2 {
		t.Fatalf("relaxations %d, improvements %d, want 5 and 2", w.m.Relaxations, w.m.Improvements)
	}
	if q := queued(w); len(q) != 1 || q[2] != 3 {
		t.Fatalf("queued %v, want only vertex 2 at level 3", q)
	}
}

// TestRelaxBidirectionalUnreached: a vertex whose neighbors are all
// unreached pulls nothing and, unreached itself, pushes nothing.
func TestRelaxBidirectionalUnreached(t *testing.T) {
	g := graph.FromEdges(5, false, []graph.Edge{
		{From: 0, To: 4, W: 1}, {From: 1, To: 2, W: 1}, {From: 1, To: 3, W: 1},
	})
	w := loneWorker(g, map[uint32]uint32{0: 0}, nil, Options{Delta: 1})
	w.processEntry(1, 0, 0, 0)
	for v := graph.Vertex(1); v < 5; v++ {
		if got := w.d.Get(v); got != graph.Infinity {
			t.Fatalf("d[%d] = %d, want unreached", v, got)
		}
	}
	if w.m.Improvements != 0 {
		t.Fatalf("%d improvements from an unreached vertex", w.m.Improvements)
	}
	if q := queued(w); len(q) != 0 {
		t.Fatalf("an unreached vertex queued %v", q)
	}
}

// TestRelaxBidirectionalIneligible: a degree-9 neighborhood, a directed
// graph and NoBidirectional all take the plain push: u keeps its
// distance though a neighbor offers a shorter one, and every other
// neighbor is improved from it.
func TestRelaxBidirectionalIneligible(t *testing.T) {
	star := func(deg int, directed bool) *graph.Graph {
		edges := make([]graph.Edge, deg)
		for i := range edges {
			edges[i] = graph.Edge{From: 1, To: graph.Vertex(i), W: 1}
		}
		edges[1].To = graph.Vertex(deg) // neighbors 0, 2, ..., deg
		return graph.FromEdges(deg+1, directed, edges)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		opt  Options
	}{
		{"degree 9", star(9, false), Options{Delta: 1}},
		{"directed", star(3, true), Options{Delta: 1}},
		{"NoBidirectional", star(3, false), Options{Delta: 1, NoBidirectional: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Vertex 0 sits at 0, one hop from u = 1 at 5: a pull
			// would lower u to 1.
			w := loneWorker(tc.g, map[uint32]uint32{0: 0, 1: 5}, nil, tc.opt)
			w.processEntry(1, 5, 0, 0)
			if got := w.d.Get(1); got != 5 {
				t.Fatalf("d[u] = %d, want 5 (no pull)", got)
			}
			deg := w.g.OutDegree(1)
			if w.m.Relaxations != int64(deg) || w.m.Improvements != int64(deg-1) {
				t.Fatalf("relaxations %d, improvements %d, want %d and %d", w.m.Relaxations, w.m.Improvements, deg, deg-1)
			}
			q := queued(w)
			if len(q) != deg-1 {
				t.Fatalf("queued %v, want every neighbor but 0", q)
			}
			for v, prio := range q {
				if v == 0 || v == 1 || prio != 6 {
					t.Fatalf("vertex %d queued at level %d, want every neighbor but 0 at 6", v, prio)
				}
			}
		})
	}
}
