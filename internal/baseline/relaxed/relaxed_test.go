package relaxed

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"wasp/internal/baseline/dijkstra"
	"wasp/internal/gen"
	"wasp/internal/graph"
	"wasp/internal/heap"
	"wasp/internal/mbq"
	"wasp/internal/metrics"
	"wasp/internal/mq"
	"wasp/internal/obim"
	"wasp/internal/parallel"
	"wasp/internal/smq"
	"wasp/internal/verify"
)

// queueCase builds one of the four queues for a run of p workers.
type queueCase struct {
	name string
	new  func(p int) Queue
}

func obimAt(delta uint64) func(int) Queue {
	return func(int) Queue { return obimQueue{obim.New(), delta} }
}

var queues = []queueCase{
	{"smq", func(p int) Queue { return smqQueue{smq.New(smq.Config{Threads: p})} }},
	{"mbq", func(p int) Queue { return mbqQueue{mbq.New(mbq.Config{Threads: p, Delta: 8})} }},
	{"mq", func(p int) Queue { return mqQueue{mq.New(mq.Config{Threads: p})} }},
	{"obim", obimAt(16)},
}

func generate(t *testing.T, name string, cfg gen.Config) *graph.Graph {
	t.Helper()
	g, err := gen.Generate(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// workload is one main workload's graph, source and Dijkstra distances.
type workload struct {
	name string
	g    *graph.Graph
	src  graph.Vertex
	want []uint32
}

// mainWorkloads generates the 13 main workloads at 2,500 vertices.
func mainWorkloads(t *testing.T) []workload {
	var ws []workload
	for _, name := range gen.Names(false) {
		g := generate(t, name, gen.Config{N: 2500, Seed: 11})
		src := graph.SourceInLargestComponent(g, 1)
		ws = append(ws, workload{name, g, src, dijkstra.Distances(g, src)})
	}
	return ws
}

func TestAllQueuesAllWorkloads(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	ws := mainWorkloads(t)
	for _, q := range queues {
		t.Run(q.name, func(t *testing.T) {
			for _, w := range ws {
				for _, p := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/p%d", w.name, p), func(t *testing.T) {
						got := Run(w.g, w.src, q.new(p), Options{Workers: p})
						if err := verify.Equal(got, w.want); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		})
	}
}

func TestMQStickiness(t *testing.T) {
	g := generate(t, "kron", gen.Config{N: 3000, Seed: 3})
	src := graph.SourceInLargestComponent(g, 1)
	want := dijkstra.Distances(g, src)
	for _, s := range []int{1, 4, 16, 64} {
		got := RunMQ(g, src, mq.Config{Stickiness: s}, Options{Workers: 3})
		if err := verify.Equal(got, want); err != nil {
			t.Fatalf("stickiness %d: %v", s, err)
		}
	}
}

func TestOBIMDeltaSweep(t *testing.T) {
	g := generate(t, "road-usa", gen.Config{N: 3000, Seed: 3})
	src := graph.SourceInLargestComponent(g, 1)
	want := dijkstra.Distances(g, src)
	for _, delta := range []uint32{1, 16, 1024} {
		got := RunOBIM(g, src, delta, Options{Workers: 3})
		if err := verify.Equal(got, want); err != nil {
			t.Fatalf("delta %d: %v", delta, err)
		}
	}
}

func TestOBIMRelaxationsAtLeastDijkstra(t *testing.T) {
	// Asynchronous Δ-stepping trades work for parallelism: with a
	// coarse Δ its relaxation count must be at least Dijkstra's (the
	// theoretical minimum, paper Fig 8).
	g := generate(t, "kron", gen.Config{N: 3000, Seed: 9})
	src := graph.SourceInLargestComponent(g, 1)
	m := metrics.NewSet(4)
	RunOBIM(g, src, 1024, Options{Workers: 4, Metrics: m})
	if got, want := m.Totals().Relaxations, dijkstra.Run(g, src).Relaxations; got < want {
		t.Fatalf("obim relaxations %d below Dijkstra minimum %d", got, want)
	}
}

// TestQueueOpTiming runs the MultiQueue as Figure 2 does, with Timing
// set, on every main workload: the timed handles must keep the
// distances exact and record queue-op time. Without Timing nothing is
// recorded.
func TestQueueOpTiming(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	ws := mainWorkloads(t)
	for _, w := range ws {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p%d", w.name, p), func(t *testing.T) {
				m := metrics.NewSet(p)
				got := RunMQ(w.g, w.src, mq.Config{}, Options{Workers: p, Metrics: m, Timing: true})
				if err := verify.Equal(got, w.want); err != nil {
					t.Fatal(err)
				}
				if m.QueueOpTime() == 0 {
					t.Fatal("no queue-op time recorded with Timing set")
				}
			})
		}
	}
	m := metrics.NewSet(2)
	RunMQ(ws[0].g, ws[0].src, mq.Config{}, Options{Workers: 2, Metrics: m})
	if got := m.QueueOpTime(); got != 0 {
		t.Fatalf("queue-op time %v recorded without Timing", got)
	}
}

func TestTerminationStress(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	var ws []workload
	for seed := uint64(0); seed < 15; seed++ {
		g := generate(t, "urand", gen.Config{N: 400, Seed: seed, Degree: 4})
		src := graph.SourceInLargestComponent(g, seed)
		ws = append(ws, workload{fmt.Sprintf("seed %d", seed), g, src, dijkstra.Distances(g, src)})
	}
	// A fine Δ spreads OBIM's work over many levels, so fewer chunks
	// fill and publish: the termination check sees the least.
	for _, q := range append(queues, queueCase{"obim-delta4", obimAt(4)}) {
		t.Run(q.name, func(t *testing.T) {
			for _, w := range ws {
				got := Run(w.g, w.src, q.new(6), Options{Workers: 6})
				if err := verify.Equal(got, w.want); err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
			}
		})
	}
}

func TestCertificate(t *testing.T) {
	g := generate(t, "mawi", gen.Config{N: 2000, Seed: 23})
	src := graph.SourceInLargestComponent(g, 2)
	for _, q := range queues {
		if err := verify.Certificate(g, src, Run(g, src, q.new(3), Options{Workers: 3})); err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
	}
}

// seedGate holds worker 0's first Push (the seed) until every other
// worker has failed misses Pops on the still-empty queue.
type seedGate struct {
	Queue
	workers, misses int
	ready           atomic.Int64 // workers past misses failed Pops
	release         chan struct{}
	timedOut        atomic.Bool
}

func (q *seedGate) NewHandle(id int) Handle {
	return &gateHandle{Handle: q.Queue.NewHandle(id), q: q, id: id}
}

type gateHandle struct {
	Handle
	q            *seedGate
	id, failures int
	held         bool
}

func (h *gateHandle) Push(it heap.Item) {
	if h.id == 0 && !h.held {
		h.held = true
		select {
		case <-h.q.release:
		case <-time.After(5 * time.Second):
			h.q.timedOut.Store(true)
		}
	}
	h.Handle.Push(it)
}

func (h *gateHandle) Pop() (heap.Item, bool) {
	it, ok := h.Handle.Pop()
	if !ok && h.id != 0 {
		h.failures++
		if h.failures == h.q.misses && h.q.ready.Add(1) == int64(h.q.workers-1) {
			close(h.q.release)
		}
	}
	return it, ok
}

// TestWorkersWaitForSeed delays the seed until every other worker has
// seen the queue empty many times. A worker that stopped on the empty
// queue before the seed landed would never release it, and the seed
// push would time out.
func TestWorkersWaitForSeed(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const p = 4
	g := generate(t, "urand", gen.Config{N: 2000, Seed: 7})
	src := graph.SourceInLargestComponent(g, 1)
	want := dijkstra.Distances(g, src)
	for _, qc := range queues {
		t.Run(qc.name, func(t *testing.T) {
			q := &seedGate{Queue: qc.new(p), workers: p, misses: 100, release: make(chan struct{})}
			got := Run(g, src, q, Options{Workers: p})
			if q.timedOut.Load() {
				t.Fatal("other workers stopped before the seed was pushed")
			}
			if err := verify.Equal(got, want); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// cancelAfter trips tok at the k-th successful Pop across all handles.
type cancelAfter struct {
	Queue
	k    int64
	pops atomic.Int64
	tok  *parallel.Token
}

func (q *cancelAfter) NewHandle(id int) Handle {
	return cancelHandle{q.Queue.NewHandle(id), q}
}

type cancelHandle struct {
	Handle
	q *cancelAfter
}

func (h cancelHandle) Pop() (heap.Item, bool) {
	it, ok := h.Handle.Pop()
	if ok && h.q.pops.Add(1) == h.q.k {
		h.q.tok.Cancel()
	}
	return it, ok
}

// TestCancelMidSolve trips the token after 1000 pops. Each worker polls
// it before every pop, so at most one more item per worker is relaxed:
// the run returns partial upper-bound distances well before it reaches
// every vertex.
func TestCancelMidSolve(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const p = 4
	g := generate(t, "road-usa", gen.Config{N: 1 << 15, Seed: 1})
	src := graph.SourceInLargestComponent(g, 1)
	want := dijkstra.Distances(g, src)
	for _, qc := range queues {
		t.Run(qc.name, func(t *testing.T) {
			tok := new(parallel.Token)
			q := &cancelAfter{Queue: qc.new(p), k: 1000, tok: tok}
			done := make(chan []uint32, 1)
			go func() { done <- Run(g, src, q, Options{Workers: p, Cancel: tok}) }()
			var got []uint32
			select {
			case got = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("cancelled run did not return")
			}
			if got[src] != 0 {
				t.Fatalf("d(source) = %d, want 0", got[src])
			}
			missed := 0
			for v, d := range got {
				if d == graph.Infinity {
					if want[v] != graph.Infinity {
						missed++
					}
					continue
				}
				if d < want[v] {
					t.Fatalf("d(%d) = %d below Dijkstra's %d", v, d, want[v])
				}
			}
			if missed == 0 {
				t.Fatal("the cancelled run reached every reachable vertex")
			}
		})
	}
}
