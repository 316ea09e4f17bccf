package core

import (
	"runtime"
	"testing"
	"time"

	"wasp/internal/baseline/dijkstra"
	"wasp/internal/chunk"
	"wasp/internal/fault"
	"wasp/internal/gen"
	"wasp/internal/graph"
	"wasp/internal/metrics"
	"wasp/internal/numa"
	"wasp/internal/trace"
	"wasp/internal/verify"
)

// TestStealsHappenUnderConcurrency: on a star graph with aggressive
// decomposition, idle workers must actually steal range chunks from the
// hub owner's current bucket.
func TestStealsHappenUnderConcurrency(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	g, _ := gen.Generate("mawi", gen.Config{N: 20000, Seed: 3})
	src := graph.SourceInLargestComponent(g, 1)
	var sawSteal bool
	// The steal interleaving depends on goroutine scheduling; retry a
	// few seeds' worth of runs before declaring failure.
	for attempt := 0; attempt < 10 && !sawSteal; attempt++ {
		m := metrics.NewSet(4)
		res := Run(g, src, Options{Workers: 4, Delta: 8, Theta: 256, Metrics: m})
		if err := verify.Equal(res.Dist, dijkstra.Distances(g, src)); err != nil {
			t.Fatal(err)
		}
		if m.Totals().StealHits > 0 {
			sawSteal = true
		}
	}
	if !sawSteal {
		t.Fatal("no steals observed across 10 concurrent star-graph runs")
	}
}

// TestTierOrderingPreference: with a hierarchical topology every worker
// must enumerate same-node victims before remote ones (the Algorithm 2
// ordering); validated structurally via the precomputed tiers.
func TestTierOrderingPreference(t *testing.T) {
	opt := Options{Workers: 16, Topology: numa.Topology{
		Sockets: 2, NodesPerSocket: 2, CoresPerNode: 4,
	}}.withDefaults()
	g := graph.FromEdges(2, true, []graph.Edge{{From: 0, To: 1, W: 1}})
	d := Run(g, 0, opt)
	if d.Dist[1] != 1 {
		t.Fatal("16-worker run wrong")
	}
	// Structural check on the tiers the workers would use.
	tiers := opt.Topology.Tiers(0, 16)
	if len(tiers) != 3 {
		t.Fatalf("want 3 tiers, got %d", len(tiers))
	}
	if len(tiers[0]) != 3 || len(tiers[1]) != 4 || len(tiers[2]) != 8 {
		t.Fatalf("tier sizes = %d/%d/%d", len(tiers[0]), len(tiers[1]), len(tiers[2]))
	}
}

// TestRandomPoliciesAlsoCorrectUnderLoad: the §4.2 comparison policies
// must stay correct on the steal-heavy star workload.
func TestRandomPoliciesAlsoCorrectUnderLoad(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	g, _ := gen.Generate("mawi", gen.Config{N: 10000, Seed: 5})
	src := graph.SourceInLargestComponent(g, 1)
	want := dijkstra.Distances(g, src)
	for _, pol := range []StealPolicy{PolicyRandom, PolicyTwoChoice} {
		for i := 0; i < 5; i++ {
			res := Run(g, src, Options{
				Workers: 4, Delta: 8, Theta: 256, Policy: pol, Retries: 4,
			})
			if err := verify.Equal(res.Dist, want); err != nil {
				t.Fatalf("%v run %d: %v", pol, i, err)
			}
		}
	}
}

// TestDecompositionProducesRangeChunks: with Theta below the hub degree
// and one worker, the hub's neighborhood must still be fully relaxed
// through range chunks.
func TestDecompositionProducesRangeChunks(t *testing.T) {
	// Star: hub 0 with 1000 spokes, weights 1.
	edges := make([]graph.Edge, 1000)
	for i := range edges {
		edges[i] = graph.Edge{From: 0, To: graph.Vertex(i + 1), W: 1}
	}
	g := graph.FromEdges(1001, true, edges)
	res := Run(g, 0, Options{Workers: 1, Theta: 64, NoLeafPruning: true})
	for v := 1; v <= 1000; v++ {
		if res.Dist[v] != 1 {
			t.Fatalf("spoke %d distance %d", v, res.Dist[v])
		}
	}
}

// TestStolenRangeChunksProcessed: ranges pushed into the current bucket
// must be correct when stolen mid-flight (stress via repeated runs).
func TestStolenRangeChunksProcessed(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	edges := make([]graph.Edge, 0, 6000)
	for i := 0; i < 3000; i++ {
		edges = append(edges, graph.Edge{From: 0, To: graph.Vertex(i + 1), W: graph.Weight(1 + i%7)})
		// Second level so stolen ranges generate further work.
		edges = append(edges, graph.Edge{From: graph.Vertex(i + 1), To: graph.Vertex(3001 + i%100), W: 2})
	}
	g := graph.FromEdges(3200, true, edges)
	want := dijkstra.Distances(g, 0)
	for i := 0; i < 20; i++ {
		res := Run(g, 0, Options{Workers: 4, Delta: 2, Theta: 64})
		if err := verify.Equal(res.Dist, want); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// TestStealingFlagRaisedOnlyBeforeCAS: a round whose only eligible
// victim (curr ≤ next) has an empty deque attempts no CAS, so the
// thief's stealing flag must stay down for the whole round — checked
// while the round is parked on its StealAttempt fault site.
func TestStealingFlagRaisedOnlyBeforeCAS(t *testing.T) {
	g := graph.FromEdges(2, true, []graph.Edge{{From: 0, To: 1, W: 1}})
	s := NewSolver(g, Options{Workers: 2, Delta: 1})
	s.Reset(0) // both workers at curr = 0 with empty deques
	thief, victim := s.ws[0], s.ws[1]
	if victim.curr.Load() != 0 || !victim.dq.Empty() {
		t.Fatal("victim not eligible with an empty deque")
	}

	plan := fault.NewPlan(fault.Config{Seed: 1, BlockOnHit: 1, BlockPoint: fault.StealAttempt})
	fault.Activate(plan)
	defer fault.Deactivate()
	defer plan.Unblock()

	done := make(chan []*chunk.Chunk, 1)
	go func() { done <- thief.stealRound(0) }() // curr ≤ next: eligible
	for plan.BlockedHits() < 1 {
		select {
		case <-done:
			t.Fatal("round finished without inspecting the victim")
		case <-time.After(time.Millisecond):
		}
	}
	if thief.stealing.Load() {
		t.Fatal("stealing flag up before any steal CAS")
	}
	plan.Unblock()
	if stolen := <-done; stolen != nil {
		t.Fatalf("stole %d chunks from an empty deque", len(stolen))
	}
	if thief.m.StealAttempts == 0 {
		t.Fatal("inspecting the victim was not counted as a steal attempt")
	}
	if thief.stealing.Load() {
		t.Fatal("stealing flag left up after the round")
	}
}

// TestStealingFlagCoversPrePublish: a full solve parked at its first
// PrePublish hit — a thief between its steal CAS and the re-publication
// of curr — must show that thief's stealing flag up, and must finish
// with exact distances once released.
func TestStealingFlagCoversPrePublish(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	g, _ := gen.Generate("urand", gen.Config{N: 1 << 14, Seed: 5})
	src := graph.SourceInLargestComponent(g, 5)
	want := dijkstra.Distances(g, src)
	defer fault.Deactivate()

	// A solve may finish before any worker steals (say, if the second
	// worker is not scheduled in time); retry until one parks in the
	// window.
	for attempt := 0; attempt < 20; attempt++ {
		plan := fault.NewPlan(fault.Config{Seed: 1, BlockOnHit: 1, BlockPoint: fault.PrePublish})
		fault.Activate(plan)
		wsCh := make(chan []*worker, 1)
		done := make(chan *Result, 1)
		opt := Options{Workers: 2, Delta: 16}
		opt.debugWorkers = func(ws []*worker) { wsCh <- ws }
		go func() { done <- Run(g, src, opt) }()
		ws := <-wsCh

		var res *Result
		parked := false
		for !parked && res == nil {
			select {
			case res = <-done:
			case <-time.After(time.Millisecond):
				parked = plan.BlockedHits() >= 1
			}
		}
		if parked {
			up := false
			for _, w := range ws {
				up = up || w.stealing.Load()
			}
			plan.Unblock()
			res = <-done
			if !up {
				t.Fatal("no worker's stealing flag up inside the in-flight-steal window")
			}
		}
		fault.Deactivate()
		plan.Unblock()
		if err := verify.Equal(res.Dist, want); err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if parked {
			return
		}
	}
	t.Fatal("no solve stole anything in 20 attempts")
}

// TestIdleWorkerFedAtDeltaOne: at Δ=1 on a road graph nearly every
// bucket is one chunk, which pour keeps private while every worker is
// busy. An idle worker must still be fed: some solve must show steals
// and relaxations on both workers. A thief wins such a chunk only in
// the moment between the owner's PushBottom and PopBottom, which a
// loaded host rarely schedules it into, so solves repeat until one is
// fed; a pour that never exposes single-chunk buckets steals nothing
// on any of them.
func TestIdleWorkerFedAtDeltaOne(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	g, _ := gen.Generate("road-usa", gen.Config{N: 1 << 14, Seed: 3})
	src := graph.SourceInLargestComponent(g, 3)
	want := dijkstra.Distances(g, src)
	const runs = 100
	for i := 0; i < runs; i++ {
		m := metrics.NewSet(2)
		res := Run(g, src, Options{Workers: 2, Delta: 1, Metrics: m})
		if err := verify.Equal(res.Dist, want); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if m.Totals().StealHits > 0 && m.Workers[0].Relaxations > 0 && m.Workers[1].Relaxations > 0 {
			return
		}
	}
	t.Fatalf("the idle worker never stole work in %d Δ=1 road solves", runs)
}

// TestHotPathZeroAllocsStealRound: a steal round collects its chunks in
// the thief's preallocated buffer, so a hit allocates nothing under any
// policy — PolicyWasp included, which takes a chunk from every eligible
// victim of a tier in one round. Every victim holds a chunk at the
// start of each round, and the chunks circulate through the thief's
// pool, so only the round itself could allocate.
func TestHotPathZeroAllocsStealRound(t *testing.T) {
	g := graph.FromEdges(2, true, []graph.Edge{{From: 0, To: 1, W: 1}})
	for _, pol := range []StealPolicy{PolicyWasp, PolicyRandom, PolicyTwoChoice} {
		t.Run(pol.String(), func(t *testing.T) {
			// Retries make a miss of the random policies all but
			// impossible: every round must hit.
			s := NewSolver(g, Options{Workers: 4, Delta: 1, Policy: pol, Retries: 64})
			s.Reset(0) // every worker at curr = 0: eligible for PolicyWasp
			thief := s.ws[0]
			hits, misses := 0, 0
			round := func() {
				for _, victim := range s.ws[1:] {
					if victim.dq.Empty() {
						c := thief.pool.Get()
						c.Push(1)
						victim.dq.PushBottom(c)
					}
				}
				stolen := thief.stealRound(0)
				if len(stolen) == 0 {
					misses++
				}
				hits += len(stolen)
				for _, c := range stolen {
					thief.pool.Put(c)
				}
			}
			round() // the pool now holds a chunk for every victim
			const rounds = 100
			allocs := testing.AllocsPerRun(rounds, round)
			if misses > 0 {
				t.Fatalf("%d of %d rounds stole nothing", misses, rounds+2)
			}
			if allocs != 0 {
				t.Fatalf("a steal round allocates %.1f objects (%d hits in %d rounds), want 0", allocs, hits, rounds+2)
			}
		})
	}
}

// TestStealingLevelRuleNonEmptyVictim pins Algorithm 2's rule under the
// order stealFrom inspects a victim in — deque first, then level: a
// victim holding a chunk is robbed only when its curr is at most the
// thief's next, or in an idle round (next = infPrio) at any level, and
// a victim the rule excludes never raises the thief's stealing flag
// (stealRound traces a StealMiss exactly when a round raised the flag
// and won nothing). Every inspected victim counts as a steal attempt,
// an empty one at any level included.
func TestStealingLevelRuleNonEmptyVictim(t *testing.T) {
	g := graph.FromEdges(2, true, []graph.Edge{{From: 0, To: 1, W: 1}})
	tl := trace.New(2)
	s := NewSolver(g, Options{Workers: 2, Delta: 1, Trace: tl})
	thief, victim := s.ws[0], s.ws[1]
	for _, tc := range []struct {
		name       string
		victimCurr uint64
		next       uint64
		chunk      bool // the victim's deque holds a chunk
		robbed     bool
	}{
		{"curr above next", 5, 3, true, false},
		{"curr at next", 3, 3, true, true},
		{"curr below next", 2, 3, true, true},
		{"idle round", 1 << 40, infPrio, true, true},
		{"idle round, idle victim", infPrio, infPrio, true, true},
		{"empty victim below next", 0, 3, false, false},
		{"empty victim above next", 5, 3, false, false},
		{"empty victim, idle round", infPrio, infPrio, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s.Reset(0)
			tl.Reset()
			victim.setCurr(tc.victimCurr)
			if tc.chunk {
				c := victim.pool.Get()
				c.Prio = tc.victimCurr
				c.Push(1)
				victim.dq.PushBottom(c)
			}
			attempts := thief.m.StealAttempts
			stolen := thief.stealRound(tc.next)
			if got := thief.m.StealAttempts - attempts; got != 1 {
				t.Fatalf("round counted %d steal attempts, want 1 (one victim inspected)", got)
			}
			if robbed := len(stolen) == 1; robbed != tc.robbed {
				t.Fatalf("robbed = %v (victim curr %d, next %d), want %v", robbed, tc.victimCurr, tc.next, tc.robbed)
			}
			if tc.chunk && victim.dq.Empty() != tc.robbed {
				t.Fatalf("victim deque empty = %v after the round, want %v", victim.dq.Empty(), tc.robbed)
			}
			if !tc.robbed && tl.CountKind(trace.StealMiss) != 0 {
				t.Fatal("the round raised the stealing flag for a victim it may not rob")
			}
			if thief.stealing.Load() {
				t.Fatal("stealing flag left up after the round")
			}
			for _, c := range stolen {
				thief.pool.Put(c)
			}
		})
	}
}

// TestHotPathZeroAllocsStealRecycle: a stolen chunk is recycled into
// the thief's pool, so a victim that fills its deque from its own pool
// every solve would find it dry and allocate, were its chunks not
// handed back at Reset. Two workers; each solve resets the solver, the
// victim fills chunks from its pool and the thief steals and drains
// every one of them, as a solve's steals do.
func TestHotPathZeroAllocsStealRecycle(t *testing.T) {
	g := graph.FromEdges(2, true, []graph.Edge{{From: 0, To: 1, W: 1}})
	s := NewSolver(g, Options{Workers: 2, Delta: 1})
	thief, victim := s.ws[0], s.ws[1]
	const chunks = 4
	stolen := 0
	solve := func() {
		s.Reset(0) // both workers at curr = 0: the victim is eligible
		for i := 0; i < chunks; i++ {
			c := victim.pool.Get()
			c.Push(1)
			victim.dq.PushBottom(c)
		}
		for i := 0; i < chunks; i++ {
			got := thief.stealRound(0)
			stolen += len(got)
			thief.processStolen(got)
		}
	}
	// Warm up: the victim's first solve makes its chunks.
	for i := 0; i < 2; i++ {
		solve()
	}
	stolen = 0
	const solves = 20
	allocs := testing.AllocsPerRun(solves, solve)
	if want := chunks * (solves + 1); stolen != want {
		t.Fatalf("thief stole %d chunks, want %d", stolen, want)
	}
	if allocs != 0 {
		t.Fatalf("a solve whose chunks are all stolen allocates %.1f objects, want 0", allocs)
	}
}

// TestStealingLevelRuleAfterPrivateAdvances: a victim's bucket advances
// publish no level until it exposes a chunk, and Algorithm 2's rule
// then applies to the level it exposed at. The victim advances twice
// privately (levels 2 and 5, one chunk each, no worker idle), so a
// thief reading its curr would see the stale level 0 — but its deque is
// empty, so no thief reads it. Its full buffer then reaches the deque
// at level 5: a thief whose next is below 5 does not rob it, one at or
// above 5 does.
func TestStealingLevelRuleAfterPrivateAdvances(t *testing.T) {
	g := graph.FromEdges(2, true, []graph.Edge{{From: 0, To: 1, W: 1}})
	s := NewSolver(g, Options{Workers: 2, Delta: 1})
	thief, victim := s.ws[0], s.ws[1]
	for _, tc := range []struct {
		next   uint64
		robbed bool
	}{{4, false}, {5, true}, {6, true}} {
		s.Reset(0) // both workers at curr = 0
		for _, lvl := range []uint64{2, 5} {
			victim.pushLocal(1, lvl)
			victim.pour(lvl)
			if stolen := thief.stealRound(tc.next); stolen != nil {
				t.Fatalf("next %d: robbed a victim with an empty deque", tc.next)
			}
		}
		if victim.curr.Load() != 0 {
			t.Fatalf("private advances published curr %d", victim.curr.Load())
		}
		for victim.dq.Empty() {
			victim.pushCurrent(1)
		}
		stolen := thief.stealRound(tc.next)
		if robbed := len(stolen) == 1; robbed != tc.robbed {
			t.Fatalf("next %d: robbed = %v (victim exposed at level 5), want %v", tc.next, robbed, tc.robbed)
		}
		if tc.robbed && (stolen[0].Prio != 5 || thief.curr.Load() != 5) {
			t.Fatalf("next %d: stole a level-%d chunk, thief published %d, want 5 and 5", tc.next, stolen[0].Prio, thief.curr.Load())
		}
		thief.processStolen(stolen)
	}
}
