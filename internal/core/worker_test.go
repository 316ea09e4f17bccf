package core

// White-box tests for the worker's bucketing machinery: the buffer
// chunk protocol, the bucket vector, pour, and the current-bucket pop
// path, exercised without running the full algorithm.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"wasp/internal/chunk"
	"wasp/internal/graph"
)

func testWorker(t *testing.T) *worker {
	t.Helper()
	return loneWorker(graph.FromEdges(4, true, []graph.Edge{{From: 0, To: 1, W: 1}}), nil, nil, Options{})
}

func TestPushPopCurrentThroughBuffer(t *testing.T) {
	w := testWorker(t)
	// Fewer than a chunk's worth stays in the buffer, never touching
	// the deque.
	for i := uint32(0); i < 10; i++ {
		w.pushCurrent(i)
	}
	if !w.dq.Empty() {
		t.Fatal("buffered pushes leaked into the deque")
	}
	for i := 9; i >= 0; i-- {
		u, prio, begin, end, ok := w.popCurrent()
		if !ok || u != uint32(i) || prio != 0 || begin != 0 || end != 0 {
			t.Fatalf("pop = (%d,%d,%d,%d,%v), want vertex %d", u, prio, begin, end, ok, i)
		}
	}
	if _, _, _, _, ok := w.popCurrent(); ok {
		t.Fatal("empty current bucket popped something")
	}
}

func TestFullBufferPublishesToDeque(t *testing.T) {
	w := testWorker(t)
	// chunk.Size pushes fill the buffer; one more must publish it.
	for i := 0; i < 64+1; i++ {
		w.pushCurrent(uint32(i))
	}
	if w.dq.Len() != 1 {
		t.Fatalf("deque has %d chunks, want 1", w.dq.Len())
	}
	// All 65 vertices still come back out.
	seen := 0
	for {
		_, _, _, _, ok := w.popCurrent()
		if !ok {
			break
		}
		seen++
	}
	if seen != 65 {
		t.Fatalf("recovered %d of 65 vertices", seen)
	}
}

func TestPushLocalAndMinNonEmpty(t *testing.T) {
	w := testWorker(t)
	if got := w.minNonEmptyLocal(); got != infPrio {
		t.Fatalf("fresh worker has local work at %d", got)
	}
	w.pushLocal(1, 7)
	w.pushLocal(2, 3)
	w.pushLocal(3, 12)
	if got := w.minNonEmptyLocal(); got != 3 {
		t.Fatalf("min bucket = %d, want 3", got)
	}
}

func TestEnsureBucketPowersOfTwo(t *testing.T) {
	w := testWorker(t)
	w.ensureBucket(5)
	if len(w.buckets) != 16 {
		t.Fatalf("vector sized %d, want minimum 16", len(w.buckets))
	}
	w.ensureBucket(100)
	if len(w.buckets) != 128 {
		t.Fatalf("vector sized %d, want next power of two 128", len(w.buckets))
	}
	// No shrink on smaller requests.
	w.ensureBucket(2)
	if len(w.buckets) != 128 {
		t.Fatal("vector shrank")
	}
}

// TestPourMovesChunksToDeque: pour exposes a bucket's chunks to thieves
// by the idle count. With every worker busy the head chunk becomes the
// private buffer and only the rest reach the deque; with a worker idle
// every chunk is exposed. Either way all entries come back out.
func TestPourMovesChunksToDeque(t *testing.T) {
	for _, tc := range []struct {
		idle    int32
		private int // chunks pour makes the buffer, counted as drained
		inBuf   int // entries in the buffer after pour
	}{
		// The head chunk is the newest, partly filled one.
		{idle: 0, private: 1, inBuf: 200 % chunk.Size},
		{idle: 1, private: 0, inBuf: 0},
	} {
		t.Run(fmt.Sprintf("idle=%d", tc.idle), func(t *testing.T) {
			w := testWorker(t)
			w.idle.Store(tc.idle)
			for i := uint32(0); i < 200; i++ {
				w.pushLocal(i, 4)
			}
			chunksInBucket := w.buckets[4].Len()
			if chunksInBucket < 3 {
				t.Fatalf("expected multiple chunks, got %d", chunksInBucket)
			}
			w.setCurr(4)
			w.pour(4)
			if !w.buckets[4].Empty() {
				t.Fatal("bucket not drained by pour")
			}
			if want := chunksInBucket - tc.private; w.dq.Len() != want {
				t.Fatalf("deque has %d chunks, want %d", w.dq.Len(), want)
			}
			if w.buf.Len() != tc.inBuf {
				t.Fatalf("buffer holds %d entries, want %d", w.buf.Len(), tc.inBuf)
			}
			if w.m.ChunksDrained != int64(tc.private) {
				t.Fatalf("pour counted %d drained chunks, want %d", w.m.ChunksDrained, tc.private)
			}
			// Everything pops back out with the right priority.
			seen := 0
			for {
				_, prio, _, _, ok := w.popCurrent()
				if !ok {
					break
				}
				if prio != 4 {
					t.Fatalf("popped priority %d, want 4", prio)
				}
				seen++
			}
			if seen != 200 {
				t.Fatalf("recovered %d of 200", seen)
			}
		})
	}
}

// TestPourExposesRangeHead: a range chunk at the head of the bucket is
// never taken as the private buffer, even with every worker busy.
func TestPourExposesRangeHead(t *testing.T) {
	w := testWorker(t)
	w.pushLocal(1, 2)
	c := w.pool.Get()
	c.SetRange(9, 128, 256, 2)
	w.pushLocalChunk(c)
	w.setCurr(2)
	w.pour(2)
	if w.dq.Len() != 2 || !w.buf.Empty() {
		t.Fatalf("deque has %d chunks and buffer %d entries, want 2 and 0", w.dq.Len(), w.buf.Len())
	}
}

func TestRangeChunkRoundTrip(t *testing.T) {
	w := testWorker(t)
	c := w.pool.Get()
	c.SetRange(9, 128, 256, 5)
	w.dq.PushBottom(c)
	u, prio, begin, end, ok := w.popCurrent()
	if !ok || u != 9 || prio != 5 || begin != 128 || end != 256 {
		t.Fatalf("range pop = (%d,%d,%d,%d,%v)", u, prio, begin, end, ok)
	}
}

func TestStaleEntrySkipped(t *testing.T) {
	w := testWorker(t)
	// Entry claims priority level 3 (Δ=1 ⇒ distances ≥ 3), but the
	// vertex's distance is 1: the staleness check must skip it without
	// relaxing anything.
	w.d.RelaxTo(1, 1)
	w.processEntry(1, 3, 0, 0)
	if w.m.StaleSkips != 1 {
		t.Fatalf("stale skips = %d, want 1", w.m.StaleSkips)
	}
	if w.m.Relaxations != 0 {
		t.Fatalf("stale entry relaxed %d edges", w.m.Relaxations)
	}
}

func TestSetCurrPublishes(t *testing.T) {
	w := testWorker(t)
	w.setCurr(42)
	if w.curr.Load() != 42 || w.currLoc != 42 {
		t.Fatal("setCurr did not publish both copies")
	}
}

// TestPourPublishesLevelOnlyWhenExposing: a bucket advance sets only
// the private level; curr, the level thieves read, is published when a
// chunk at the new level is first exposed on the deque (expose). An
// advance onto a one-chunk bucket with no worker idle exposes nothing
// and leaves curr at the old level; with a worker idle pour exposes
// every chunk, so curr reads the new level; a full buffer and a
// current-level decomposition each publish as they expose.
func TestPourPublishesLevelOnlyWhenExposing(t *testing.T) {
	t.Run("private advance", func(t *testing.T) {
		w := testWorker(t)
		w.setCurr(2)
		w.pushLocal(1, 5)
		w.pour(5)
		if w.currLoc != 5 || w.curr.Load() != 2 || !w.dq.Empty() {
			t.Fatalf("currLoc %d, curr %d, deque empty %v: want 5, 2 (unpublished), empty",
				w.currLoc, w.curr.Load(), w.dq.Empty())
		}
		// The buffer fills, and the first full one reaches the deque
		// under the new level.
		for w.dq.Empty() {
			if w.curr.Load() != 2 {
				t.Fatalf("curr %d published before any chunk was exposed", w.curr.Load())
			}
			w.pushCurrent(1)
		}
		if w.curr.Load() != 5 {
			t.Fatalf("a full buffer reached the deque under curr %d, want 5", w.curr.Load())
		}
	})
	t.Run("idle worker", func(t *testing.T) {
		w := testWorker(t)
		w.setCurr(2)
		w.idle.Store(1)
		w.pushLocal(1, 5)
		w.pour(5)
		if w.curr.Load() != 5 || w.dq.Len() != 1 {
			t.Fatalf("curr %d with %d exposed chunks, want 5 and 1", w.curr.Load(), w.dq.Len())
		}
	})
	t.Run("decompose", func(t *testing.T) {
		edges := make([]graph.Edge, 100)
		for i := range edges {
			edges[i] = graph.Edge{From: 0, To: graph.Vertex(i + 1), W: 1}
		}
		w := loneWorker(graph.FromEdges(101, true, edges), nil, nil, Options{Theta: 32})
		w.setCurr(2)
		w.pushLocal(9, 3)
		w.pour(3)
		w.decompose(0, 7, 100) // a later level: ranges stay local
		if w.curr.Load() != 2 || !w.dq.Empty() {
			t.Fatalf("a decomposition at a later level published curr %d, exposed %d", w.curr.Load(), w.dq.Len())
		}
		w.decompose(0, 3, 100) // the current level: ranges are exposed
		if w.curr.Load() != 3 || w.dq.Len() != 3 {
			t.Fatalf("curr %d with %d exposed ranges, want 3 and 3", w.curr.Load(), w.dq.Len())
		}
	})
}

// TestPourPublishesBeforeExposing: a thief that sees a chunk on the
// deque and then reads curr must read at least the chunk's level —
// expose publishes before PushBottom. The owner advances through
// rising levels with a worker idle, so every chunk is exposed, and
// never pops; the lone thief therefore steals exactly the chunk that
// made the deque non-empty.
func TestPourPublishesBeforeExposing(t *testing.T) {
	w := testWorker(t)
	w.idle.Store(1)
	const levels = 2000
	var done atomic.Bool
	bad := make(chan string, 1)
	go func() {
		defer close(bad)
		for !done.Load() {
			if w.dq.Empty() {
				continue
			}
			lvl := w.curr.Load()
			if c := w.dq.Steal(); c != nil && c.Prio > lvl {
				select {
				case bad <- fmt.Sprintf("stole a level-%d chunk after reading curr %d", c.Prio, lvl):
				default:
				}
			}
		}
	}()
	for lvl := uint64(1); lvl <= levels; lvl++ {
		w.pushLocal(1, lvl)
		w.pour(lvl)
	}
	for !w.dq.Empty() {
		runtime.Gosched()
	}
	done.Store(true)
	if msg, ok := <-bad; ok {
		t.Fatal(msg)
	}
}
