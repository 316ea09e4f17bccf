// Package bellmanford implements a queue-based sequential Bellman–Ford
// (SPFA variant). It serves as a second, structurally different
// correctness oracle: Dijkstra and Bellman–Ford agreeing on every test
// graph rules out a common bug in the shared test harness.
package bellmanford

import (
	sdist "wasp/internal/dist"
	"wasp/internal/graph"
	"wasp/internal/parallel"
)

// Run computes single-source shortest paths from source.
func Run(g *graph.Graph, source graph.Vertex) []uint32 {
	dist, _ := RunToken(g, source, nil)
	return dist
}

// cancelStride bounds the queue pops between cancellation polls.
const cancelStride = 1024

// RunToken is Run with cooperative cancellation: the token is polled
// every ~thousand queue pops, and a cancelled run returns the partial
// (possibly non-final) distances computed so far. It also returns the
// number of edge relaxations performed: every out-edge of every popped
// vertex, as Dijkstra counts them.
func RunToken(g *graph.Graph, source graph.Vertex, tok *parallel.Token) (dist []uint32, relaxations int64) {
	n := g.NumVertices()
	dist = make([]uint32, n)
	for i := range dist {
		dist[i] = graph.Infinity
	}
	dist[source] = 0

	inQueue := make([]bool, n)
	queue := make([]graph.Vertex, 0, 1024)
	queue = append(queue, source)
	inQueue[source] = true
	countdown := cancelStride
	for head := 0; head < len(queue); head++ {
		if countdown--; countdown <= 0 {
			if tok.Cancelled() {
				break
			}
			countdown = cancelStride
		}
		u := queue[head]
		inQueue[u] = false
		du := dist[u]
		dst, wts := g.OutNeighbors(u)
		relaxations += int64(len(dst))
		for i, v := range dst {
			if nd := sdist.SatAdd(du, wts[i]); nd < dist[v] {
				dist[v] = nd
				if !inQueue[v] {
					inQueue[v] = true
					queue = append(queue, v)
				}
			}
		}
		// Compact the queue occasionally to bound memory.
		if head > 1<<20 && head*2 > len(queue) {
			queue = append(queue[:0], queue[head+1:]...)
			head = -1
		}
	}
	return dist, relaxations
}
