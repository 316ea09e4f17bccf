package relaxed

import (
	"wasp/internal/graph"
	"wasp/internal/heap"
	"wasp/internal/mbq"
	"wasp/internal/mq"
	"wasp/internal/obim"
	"wasp/internal/smq"
)

// Adapters lifting the concrete queue packages to the Queue interface
// (their NewHandle methods return concrete handle types).

type smqQueue struct{ *smq.SMQ }

func (q smqQueue) NewHandle(id int) Handle { return q.SMQ.NewHandle(id) }

type mbqQueue struct{ *mbq.MBQ }

func (q mbqQueue) NewHandle(id int) Handle { return q.MBQ.NewHandle(id) }

type mqQueue struct{ *mq.MQ }

func (q mqQueue) NewHandle(id int) Handle { return q.MQ.NewHandle(id) }

// obimQueue files a pushed distance d at level ⌊d/Δ⌋ and hands a popped
// level L back as priority L·Δ, so the driver's stale check
// d(u) < Prio skips exactly the entries re-bucketed below their level.
type obimQueue struct {
	s     *obim.Scheduler
	delta uint64
}

func (q obimQueue) NewHandle(int) Handle { return obimHandle{q.s.NewHandle(), q.delta} }

// Empty counts published chunks only, as Galois's termination does: a
// handle's unpublished local chunks are drained by its owner.
func (q obimQueue) Empty() bool { return q.s.GlobalLen() == 0 }

type obimHandle struct {
	h     *obim.Handle
	delta uint64
}

func (h obimHandle) Push(it heap.Item) { h.h.Push(it.Vertex, it.Prio/h.delta) }

func (h obimHandle) Pop() (heap.Item, bool) {
	v, level, ok := h.h.Pop()
	return heap.Item{Prio: level * h.delta, Vertex: v}, ok
}

// RunSMQ computes SSSP over a Stealing MultiQueue.
func RunSMQ(g *graph.Graph, source graph.Vertex, cfg smq.Config, opt Options) []uint32 {
	if cfg.Threads <= 0 {
		cfg.Threads = opt.Workers
	}
	return Run(g, source, smqQueue{smq.New(cfg)}, opt)
}

// RunMBQ computes SSSP over a Multi Bucket Queue.
func RunMBQ(g *graph.Graph, source graph.Vertex, cfg mbq.Config, opt Options) []uint32 {
	if cfg.Threads <= 0 {
		cfg.Threads = opt.Workers
	}
	return Run(g, source, mbqQueue{mbq.New(cfg)}, opt)
}

// RunMQ computes SSSP over a MultiQueue: the paper's MultiQueue
// parallel Dijkstra baseline (§2, Figure 2).
func RunMQ(g *graph.Graph, source graph.Vertex, cfg mq.Config, opt Options) []uint32 {
	if cfg.Threads <= 0 {
		cfg.Threads = opt.Workers
	}
	return Run(g, source, mqQueue{mq.New(cfg)}, opt)
}

// RunOBIM computes SSSP over an OBIM scheduler at Δ-coarsening delta
// (0 → 1): the paper's Galois asynchronous Δ-stepping baseline (§2, §5).
// Vertices are chunked into thread-local bags per level, full chunks
// publish to global bags, and threads work on their best local level
// after consulting the global advertisement. There are no barriers;
// asynchrony comes at the price of more priority drift than Wasp, which
// is what Figure 8 quantifies.
func RunOBIM(g *graph.Graph, source graph.Vertex, delta uint32, opt Options) []uint32 {
	if delta == 0 {
		delta = 1
	}
	return Run(g, source, obimQueue{obim.New(), uint64(delta)}, opt)
}
