package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"wasp"
)

// sourceKind selects how a workload draws query sources.
type sourceKind int

const (
	// hotZipf draws from hotSources vertices picked per seed, ranked by
	// a Zipf(s=zipfS) law: every hot source fits in the daemon's cache.
	hotZipf sourceKind = iota
	// uniformAll draws uniformly over every vertex: almost every query
	// misses the cache.
	uniformAll
)

const (
	hotSources = 48
	zipfS      = 1.1
	patchEdges = 4 // set-weight mutations per batch in the probe
)

// workload is one synthetic traffic mix against road-usa 2^18
// (generator seed 1). Arrivals are open-loop Poisson; targets are
// uniform over all vertices. The rates keep the daemon's CPU at or
// below about half of a 2-vCPU host; no observed traffic backs them.
type workload struct {
	name    string
	graph   string // wasp.GenerateWorkload name
	n       int    // requested vertex count
	readQPS float64
	sources sourceKind
}

var workloads = []workload{
	{name: "road-hit", graph: "road-usa", n: 1 << 18, readQPS: 300, sources: hotZipf},
	{name: "road-miss", graph: "road-usa", n: 1 << 18, readQPS: 4, sources: uniformAll},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// op is one scheduled query. At is the send time relative to the start
// of its phase.
type op struct {
	At     time.Duration
	Source wasp.Vertex
	Target wasp.Vertex
}

// schedule is the seeded operation list of one run. Fill queries every
// source the workload draws, or enough distinct ones to overflow
// ssspd's default cache, all due at once: the cache is then in the
// steady state the window measures. A warm-up at the workload's rate
// follows, and then the measured window. Only the window is recorded.
type schedule struct {
	Fill, Warmup, Window []op
}

// fillMargin is how many sources past the cache's capacity the fill
// queries, so that eviction has begun when the warm-up starts.
const fillMargin = 8

// newSchedule derives every input of a run from seed: arrival times,
// sources and targets. The graph is an input, not a seeded choice —
// every workload uses generator seed 1.
func newSchedule(w workload, g *wasp.Graph, seed uint64, warmup, window time.Duration) schedule {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	pick, hot := sourcePicker(w.sources, g, r)
	n := g.NumVertices()
	var s schedule
	if hot != nil {
		for _, v := range hot {
			s.Fill = append(s.Fill, op{Source: v, Target: wasp.Vertex(r.IntN(n))})
		}
	} else {
		seen := map[wasp.Vertex]bool{}
		for want := min(defCacheBytes/(4*n)+fillMargin, n); len(s.Fill) < want; {
			if v := pick(); !seen[v] {
				seen[v] = true
				s.Fill = append(s.Fill, op{Source: v, Target: wasp.Vertex(r.IntN(n))})
			}
		}
	}
	queries := func(d time.Duration) []op {
		at := arrivals(r, w.readQPS, d)
		ops := make([]op, len(at))
		for i, t := range at {
			ops[i] = op{At: t, Source: pick(), Target: wasp.Vertex(r.IntN(n))}
		}
		return ops
	}
	s.Warmup, s.Window = queries(warmup), queries(window)
	return s
}

// arrivals returns the sorted send times of a Poisson process of the
// given rate over d, conditioned on its expected count: given the
// count, Poisson arrival times are independent and uniform. Fixing the
// count keeps the offered load, and so the sample size behind every
// percentile, the same on every seed.
func arrivals(r *rand.Rand, rate float64, d time.Duration) []time.Duration {
	count := int(math.Round(rate * d.Seconds()))
	at := make([]time.Duration, count)
	for i := range at {
		at[i] = time.Duration(r.Int64N(int64(d)))
	}
	slices.Sort(at)
	return at
}

// sourcePicker returns the workload's source distribution over g and,
// for hotZipf, the hot vertices it draws from.
func sourcePicker(kind sourceKind, g *wasp.Graph, r *rand.Rand) (func() wasp.Vertex, []wasp.Vertex) {
	n := g.NumVertices()
	if kind == uniformAll {
		return func() wasp.Vertex { return wasp.Vertex(r.IntN(n)) }, nil
	}
	hot := make([]wasp.Vertex, 0, hotSources)
	seen := map[wasp.Vertex]bool{}
	for len(hot) < hotSources {
		v := wasp.Vertex(r.IntN(n))
		if !seen[v] {
			seen[v] = true
			hot = append(hot, v)
		}
	}
	z := rand.NewZipf(r, zipfS, 1, hotSources-1)
	return func() wasp.Vertex { return hot[z.Uint64()] }, hot
}

// patchBatch draws patchEdges distinct existing edges of g and raises
// each one's weight by one.
func patchBatch(g *wasp.Graph, r *rand.Rand) []wasp.Mutation {
	batch := make([]wasp.Mutation, 0, patchEdges)
	inBatch := map[[2]wasp.Vertex]bool{}
	for len(batch) < patchEdges {
		u := wasp.Vertex(r.IntN(g.NumVertices()))
		dst, _ := g.OutNeighbors(u)
		if len(dst) == 0 {
			continue
		}
		v := dst[r.IntN(len(dst))]
		key := [2]wasp.Vertex{u, v}
		if !g.Directed() && v < u {
			key = [2]wasp.Vertex{v, u}
		}
		if v == u || inBatch[key] {
			continue
		}
		inBatch[key] = true
		w, _ := g.FindEdge(u, v)
		batch = append(batch, wasp.Mutation{Kind: wasp.MutSetWeight, From: u, To: v, W: w + 1})
	}
	return batch
}
