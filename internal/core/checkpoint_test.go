package core

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"wasp/internal/baseline/dijkstra"
	"wasp/internal/fault"
	"wasp/internal/gen"
	"wasp/internal/graph"
	"wasp/internal/parallel"
	"wasp/internal/verify"
)

// TestCheckpointUpperBoundAndMonotone snapshots a live solve as fast
// as the checkpointer can spin and checks the two properties the whole
// recovery design rests on: every finite entry of every snapshot is an
// upper bound on the true distance (the racy copy can never observe a
// value below the fixed point), and successive snapshots are
// element-wise non-increasing (the distance array is monotone, so
// later captures only ever tighten).
func TestCheckpointUpperBoundAndMonotone(t *testing.T) {
	g, err := gen.Generate("road-usa", gen.Config{N: 200_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	src := graph.Vertex(0)
	ref := dijkstra.Distances(g, src)

	s := NewSolver(g, Options{Workers: 4})
	s.Prepare(src)
	done := make(chan *Result, 1)
	go func() { done <- s.Launch(nil) }()

	var snaps []Snapshot
	for len(snaps) < 64 {
		snaps = append(snaps, s.Checkpoint(nil))
		select {
		case res := <-done:
			// Solve finished: one final snapshot must equal the result.
			last := s.Checkpoint(nil)
			if err := verify.Equal(last.Dist, res.Dist); err != nil {
				t.Fatalf("post-completion snapshot differs from result: %v", err)
			}
			snaps = append(snaps, last)
			checkSnapshots(t, snaps, ref, src)
			return
		default:
		}
	}
	<-done
	checkSnapshots(t, snaps, ref, src)
}

func checkSnapshots(t *testing.T, snaps []Snapshot, ref []uint32, src graph.Vertex) {
	t.Helper()
	for k, snap := range snaps {
		if snap.Source != src {
			t.Fatalf("snapshot %d: source %d, want %d", k, snap.Source, src)
		}
		settled := 0
		for i, d := range snap.Dist {
			if d < ref[i] {
				t.Fatalf("snapshot %d: dist[%d] = %d below true distance %d", k, i, d, ref[i])
			}
			if d != graph.Infinity {
				settled++
			}
			if k > 0 && d > snaps[k-1].Dist[i] {
				t.Fatalf("snapshot %d: dist[%d] rose from %d to %d", k, i, snaps[k-1].Dist[i], d)
			}
		}
		if settled != snap.Settled {
			t.Fatalf("snapshot %d: Settled = %d, counted %d", k, snap.Settled, settled)
		}
	}
}

// TestWarmStartExactAllPolicies: warm-starting from any valid
// upper-bound state must converge to exactly the cold-solve distances,
// whatever the steal policy and however much of the snapshot is
// missing. The seeds are the reference distances with a random subset
// knocked back to ∞ — every surviving entry is a true path length, so
// each is a legitimate mid-solve state.
func TestWarmStartExactAllPolicies(t *testing.T) {
	for _, policy := range []StealPolicy{PolicyWasp, PolicyRandom, PolicyTwoChoice} {
		for _, seed := range []uint64{1, 2, 3} {
			g, err := gen.Generate("kron", gen.Config{N: 20_000, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			src := graph.Vertex(1)
			ref := dijkstra.Distances(g, src)
			rng := rand.New(rand.NewPCG(seed, 99))
			for _, keep := range []float64{0, 0.5, 1} {
				warm := make([]uint32, len(ref))
				for i, d := range ref {
					if graph.Vertex(i) == src || rng.Float64() < keep {
						warm[i] = d
					} else {
						warm[i] = graph.Infinity
					}
				}
				s := NewSolver(g, Options{Workers: 4, Policy: policy})
				s.PrepareWarm(src, warm)
				res := s.Launch(nil)
				if err := verify.Equal(res.Dist, ref); err != nil {
					t.Fatalf("policy %v seed %d keep %v: %v", policy, seed, keep, err)
				}
				if !res.Complete {
					t.Fatalf("policy %v seed %d keep %v: warm solve incomplete", policy, seed, keep)
				}
			}
		}
	}
}

// TestCheckpointThenResumeRoundTrip is the in-process version of the
// crash harness: cancel a solve partway, checkpoint the wreckage,
// warm-start a second solver from it and require bit-exact agreement
// with the oracle.
func TestCheckpointThenResumeRoundTrip(t *testing.T) {
	g, err := gen.Generate("road-usa", gen.Config{N: 150_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	src := graph.Vertex(0)
	ref := dijkstra.Distances(g, src)

	s := NewSolver(g, Options{Workers: 4})
	tok := new(parallel.Token)
	time.AfterFunc(2*time.Millisecond, tok.Cancel)
	s.Prepare(src)
	s.Launch(tok)
	snap := s.Checkpoint(nil)

	warm := NewSolver(g, Options{Workers: 4})
	warm.PrepareWarm(src, snap.Dist)
	r := warm.Launch(nil)
	if err := verify.Equal(r.Dist, ref); err != nil {
		t.Fatalf("resumed solve diverged: %v", err)
	}
}

// TestCheckpointUnderStretchedWindow re-checks the upper-bound
// property with fault injection stretching each copy block: the
// checkpointer yields between blocks while relaxations keep landing,
// maximizing the mix of old and new values a single snapshot observes.
func TestCheckpointUnderStretchedWindow(t *testing.T) {
	g, err := gen.Generate("road-usa", gen.Config{N: 200_000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	src := graph.Vertex(0)
	ref := dijkstra.Distances(g, src)

	fault.Activate(fault.NewPlan(fault.Config{Seed: 21, CheckpointStall: 1000, MaxYields: 8}))
	defer fault.Deactivate()

	s := NewSolver(g, Options{Workers: 4})
	s.Prepare(src)
	done := make(chan *Result, 1)
	go func() { done <- s.Launch(nil) }()
	var snaps []Snapshot
	for i := 0; i < 16; i++ {
		snaps = append(snaps, s.Checkpoint(nil))
	}
	<-done
	checkSnapshots(t, snaps, ref, src)
}

// BenchmarkCheckpointOverhead measures the solve-time cost of a
// concurrent periodic checkpointer — the acceptance bar is within a
// few percent of the unsupervised solve, since the copy loop takes no
// locks and the workers never wait for it.
func BenchmarkCheckpointOverhead(b *testing.B) {
	g, err := gen.Generate("road-usa", gen.Config{N: 1 << 18, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	src := graph.Vertex(0)
	s := NewSolver(g, Options{Workers: 4})

	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Solve(src, nil)
		}
	})
	b.Run("on-5ms", func(b *testing.B) {
		var buf []uint32
		for i := 0; i < b.N; i++ {
			s.Prepare(src)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				tick := time.NewTicker(5 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						buf = s.Checkpoint(buf).Dist
					}
				}
			}()
			s.Launch(nil)
			close(stop)
			wg.Wait()
		}
	})
}
