package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"wasp/internal/baseline/dijkstra"
	"wasp/internal/fault"
	"wasp/internal/gen"
	"wasp/internal/graph"
	"wasp/internal/parallel"
)

// The §4.3 termination protocol is the part of Wasp that a livelock or
// deadlock bug would hide in: plain unit tests essentially never land a
// termination scan inside an in-flight steal. The tests below stretch
// those windows with the fault package's seeded hooks and convert any
// hang into a failure with a full worker-state dump.

// runWithWatchdog runs one Wasp solve and fails the test with a state
// dump if it does not terminate within timeout (generous: the point is
// catching livelock, not slowness under -race).
func runWithWatchdog(t *testing.T, g *graph.Graph, src graph.Vertex,
	opt Options, timeout time.Duration, label string) *Result {
	t.Helper()
	var ws []*worker
	opt.debugWorkers = func(all []*worker) { ws = all }
	done := make(chan *Result, 1)
	go func() { done <- Run(g, src, opt) }()
	select {
	case res := <-done:
		return res
	case <-time.After(timeout):
		t.Fatalf("%s: solve did not terminate within %v — livelock or deadlock in the termination protocol\n%s",
			label, timeout, dumpWorkers(ws))
		return nil
	}
}

// dumpWorkers renders each worker's termination-relevant state plus all
// goroutine stacks, the post-mortem for a hung solve.
func dumpWorkers(ws []*worker) string {
	return dumpWorkerStates(ws)
}

// TestTerminationUnderStealWindowFaults hammers the double-scan window:
// every solve runs with stalls injected between the steal CAS and the
// curr re-publication (plus steal and scan jitter), and must still
// terminate with exact distances. Seeds make a failure reproducible.
// Road at Δ=1 makes nearly every bucket a single chunk, so most
// advances keep it private (pour) and thieves race for the few chunks
// exposed while a worker idles; urand at Δ=4 fills buckets with many.
func TestTerminationUnderStealWindowFaults(t *testing.T) {
	runs := uint64(120)
	if testing.Short() {
		runs = 30
	}
	defer fault.Deactivate()
	for _, tc := range []struct {
		graph string
		cfg   gen.Config
		delta uint32
	}{
		{"urand", gen.Config{N: 600, Degree: 5}, 4},
		{"road-usa", gen.Config{N: 1 << 12}, 1},
	} {
		t.Run(fmt.Sprintf("%s/delta%d", tc.graph, tc.delta), func(t *testing.T) {
			for seed := uint64(1); seed <= runs; seed++ {
				cfg := tc.cfg
				cfg.Seed = seed
				g, err := gen.Generate(tc.graph, cfg)
				if err != nil {
					t.Fatalf("seed %d: generate: %v", seed, err)
				}
				src := graph.SourceInLargestComponent(g, seed)
				want := dijkstra.Run(g, src).Dist

				fault.Activate(fault.NewPlan(fault.Config{
					Seed:       seed,
					StealDelay: 400,
					PrePublish: 700,
					TermScan:   500,
					MaxYields:  6,
				}))
				res := runWithWatchdog(t, g, src,
					Options{Delta: tc.delta, Workers: 4},
					30*time.Second, fmt.Sprintf("seed %d", seed))
				fault.Deactivate()

				if !res.Complete {
					t.Fatalf("seed %d: uncancelled run reported Complete=false", seed)
				}
				for v := range want {
					if res.Dist[v] != want[v] {
						t.Fatalf("seed %d: d(%d) = %d, want %d", seed, v, res.Dist[v], want[v])
					}
				}
			}
		})
	}
}

// TestTerminationFaultsAllPolicies runs the same stretch against the
// random and two-choice steal policies, whose rounds share the flag and
// counter brackets.
func TestTerminationFaultsAllPolicies(t *testing.T) {
	defer fault.Deactivate()
	for _, pol := range []StealPolicy{PolicyRandom, PolicyTwoChoice} {
		for seed := uint64(1); seed <= 10; seed++ {
			g, _ := gen.Generate("urand", gen.Config{N: 500, Seed: seed, Degree: 4})
			src := graph.SourceInLargestComponent(g, seed)
			want := dijkstra.Run(g, src).Dist
			fault.Activate(fault.NewPlan(fault.Config{
				Seed: seed, StealDelay: 500, PrePublish: 800, TermScan: 500,
			}))
			res := runWithWatchdog(t, g, src,
				Options{Delta: 2, Workers: 4, Policy: pol, Retries: 4},
				30*time.Second, fmt.Sprintf("policy %v seed %d", pol, seed))
			fault.Deactivate()
			for v := range want {
				if res.Dist[v] != want[v] {
					t.Fatalf("policy %v seed %d: d(%d) = %d, want %d",
						pol, seed, v, res.Dist[v], want[v])
				}
			}
		}
	}
}

// TestInjectedPanicIsContained injects a panic into a worker's steal
// path and requires: the run returns (no deadlocked siblings), the
// panic surfaces on the token with worker id and stack, the result is
// marked incomplete, and no goroutines leak.
func TestInjectedPanicIsContained(t *testing.T) {
	g, err := gen.Generate("urand", gen.Config{N: 2000, Seed: 9, Degree: 8})
	if err != nil {
		t.Fatal(err)
	}
	src := graph.SourceInLargestComponent(g, 9)
	before := runtime.NumGoroutine()
	defer fault.Deactivate()

	for _, hit := range []int64{1, 3, 7} {
		tok := new(parallel.Token)
		fault.Activate(fault.NewPlan(fault.Config{
			Seed: 9, PanicOnHit: hit, PanicPoint: fault.StealAttempt,
		}))
		done := make(chan *Result, 1)
		go func() {
			done <- Run(g, src, Options{Delta: 2, Workers: 4, Cancel: tok})
		}()
		var res *Result
		select {
		case res = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("hit %d: panicked run never returned — siblings deadlocked", hit)
		}
		fault.Deactivate()

		err := tok.Err()
		if err == nil {
			t.Fatalf("hit %d: injected panic not recorded on the token", hit)
		}
		var pe *parallel.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("hit %d: token error %T is not a *PanicError", hit, err)
		}
		if pe.Worker < 0 || pe.Worker >= 4 {
			t.Fatalf("hit %d: worker id %d out of range", hit, pe.Worker)
		}
		if !strings.Contains(err.Error(), "injected panic") {
			t.Fatalf("hit %d: panic value lost: %v", hit, err)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("hit %d: no stack captured", hit)
		}
		if res.Complete {
			t.Fatalf("hit %d: panicked run reported Complete", hit)
		}
	}

	// Every worker goroutine must have joined; allow slack for runtime
	// background goroutines.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestPreCancelledTokenReturnsImmediately: a token cancelled before the
// solve starts must yield a prompt partial result, not a hang.
func TestPreCancelledTokenReturnsImmediately(t *testing.T) {
	g, _ := gen.Generate("urand", gen.Config{N: 5000, Seed: 4, Degree: 8})
	src := graph.SourceInLargestComponent(g, 4)
	tok := new(parallel.Token)
	tok.Cancel()
	done := make(chan *Result, 1)
	go func() { done <- Run(g, src, Options{Workers: 4, Cancel: tok}) }()
	select {
	case res := <-done:
		if res.Complete {
			t.Fatal("cancelled run reported Complete")
		}
		if res.Dist[src] != 0 {
			t.Fatalf("d(source) = %d", res.Dist[src])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pre-cancelled run hung")
	}
}

// TestMidFlightCancelSnapshotIsUpperBound: cancelling a running solve
// must return promptly with distances that are valid path lengths —
// never below the true shortest distance.
func TestMidFlightCancelSnapshotIsUpperBound(t *testing.T) {
	g, err := gen.Generate("road-usa", gen.Config{N: 30000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	src := graph.SourceInLargestComponent(g, 7)
	want := dijkstra.Run(g, src).Dist
	tok := new(parallel.Token)
	done := make(chan *Result, 1)
	go func() { done <- Run(g, src, Options{Delta: 8, Workers: 4, Cancel: tok}) }()
	time.Sleep(500 * time.Microsecond)
	tok.Cancel()
	select {
	case res := <-done:
		for v := range want {
			if res.Dist[v] < want[v] {
				t.Fatalf("d(%d) = %d below true distance %d", v, res.Dist[v], want[v])
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not drain")
	}
}
