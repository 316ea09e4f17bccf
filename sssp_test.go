package wasp_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"wasp"
)

func TestRunAllAlgorithmsAgree(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	g, err := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 3000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	src := wasp.SourceInLargestComponent(g, 1)

	ref, err := wasp.Run(g, src, wasp.Options{Algorithm: wasp.AlgoDijkstra, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range wasp.Algorithms() {
		algo, err := wasp.ParseAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			res, err := wasp.Run(g, src, wasp.Options{
				Algorithm: algo, Workers: 3, Delta: 8, Verify: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for v := range res.Dist {
				if res.Dist[v] != ref.Dist[v] {
					t.Fatalf("d(%d) = %d, dijkstra says %d", v, res.Dist[v], ref.Dist[v])
				}
			}
			if res.Elapsed <= 0 {
				t.Fatal("elapsed not recorded")
			}
			if res.Algorithm != algo {
				t.Fatal("algorithm not recorded")
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := wasp.Run(nil, 0, wasp.Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := wasp.FromEdges(2, true, []wasp.Edge{{From: 0, To: 1, W: 1}})
	if _, err := wasp.Run(g, 99, wasp.Options{}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := wasp.Run(g, 0, wasp.Options{Algorithm: wasp.Algorithm(77)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, name := range wasp.Algorithms() {
		a, err := wasp.ParseAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != name {
			t.Fatalf("round trip: %q -> %v -> %q", name, a, a.String())
		}
	}
	if _, err := wasp.ParseAlgorithm("nope"); err == nil {
		t.Fatal("bad name accepted")
	}
	if wasp.Algorithm(-1).String() != "unknown" {
		t.Fatal("negative algorithm name")
	}
}

// TestOptionsDefaulting: out-of-range Workers/Delta/Rho must be
// normalized to the documented defaults, not crash or hang — for the
// zero value and for explicitly negative inputs, across a sequential, a
// synchronous and an asynchronous algorithm.
func TestOptionsDefaulting(t *testing.T) {
	g := wasp.FromEdges(4, true, []wasp.Edge{
		{From: 0, To: 1, W: 2}, {From: 1, To: 2, W: 2}, {From: 2, To: 3, W: 2},
	})
	cases := []wasp.Options{
		{}, // zero value: Wasp, Δ=1, one worker
		{Workers: -3, Delta: 0},
		{Algorithm: wasp.AlgoGAP, Workers: 0, Delta: 0},
		{Algorithm: wasp.AlgoRho, Workers: -1, Rho: 0},
		{Algorithm: wasp.AlgoDijkstra, Workers: -5},
	}
	for i, o := range cases {
		o.Verify = true
		res, err := wasp.Run(g, 0, o)
		if err != nil {
			t.Fatalf("case %d (%+v): %v", i, o, err)
		}
		if !res.Complete {
			t.Fatalf("case %d: defaulted run not Complete", i)
		}
		if res.Dist[3] != 6 {
			t.Fatalf("case %d: d(3) = %d, want 6", i, res.Dist[3])
		}
	}
}

// TestRhoIsRhoSteppingsOnly: Options.Rho sets ρ-stepping's budget and
// nothing else. Radius-stepping keeps its ball of 8 vertices, so sssp's
// -rho default of 4096 cannot turn it into a few huge steps.
func TestRhoIsRhoSteppingsOnly(t *testing.T) {
	g, err := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: 1 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := wasp.SourceInLargestComponent(g, 1)
	var res [2]*wasp.Result
	for i, rho := range []int{0, 4096} {
		r, err := wasp.Run(g, src, wasp.Options{Algorithm: wasp.AlgoRadius, Workers: 1, Rho: rho})
		if err != nil {
			t.Fatal(err)
		}
		res[i] = r
	}
	if res[0].Steps != res[1].Steps || res[0].Progress.Relaxations != res[1].Progress.Relaxations {
		t.Fatalf("radius with Rho 4096: %d steps, %d relaxations; with Rho 0: %d steps, %d relaxations",
			res[1].Steps, res[1].Progress.Relaxations, res[0].Steps, res[0].Progress.Relaxations)
	}
}

func TestParallelFlag(t *testing.T) {
	if wasp.AlgoDijkstra.Parallel() || wasp.AlgoBellmanFord.Parallel() {
		t.Fatal("sequential algorithms marked parallel")
	}
	if !wasp.AlgoWasp.Parallel() || !wasp.AlgoGAP.Parallel() {
		t.Fatal("parallel algorithms marked sequential")
	}
}

// TestCollectMetrics: every algorithm counts its work with zero-value
// options — no observer, nothing to switch on. Result.Metrics is set
// and Progress.Relaxations is its total, on a pre-cancelled run (zero
// work) as on a full one; every algorithm counts relaxations.
func TestCollectMetrics(t *testing.T) {
	g, _ := wasp.GenerateWorkload("urand", wasp.WorkloadConfig{N: 2000, Seed: 3})
	src := wasp.SourceInLargestComponent(g, 1)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range wasp.Algorithms() {
		a, err := wasp.ParseAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", a, workers), func(t *testing.T) {
				opt := wasp.Options{Algorithm: a, Workers: workers}
				res, err := wasp.Run(g, src, opt)
				if err != nil {
					t.Fatal(err)
				}
				if res.Metrics == nil {
					t.Fatal("Result.Metrics is nil")
				}
				if res.Progress.Relaxations != res.Metrics.Relaxations {
					t.Fatalf("Progress.Relaxations %d, Metrics.Relaxations %d",
						res.Progress.Relaxations, res.Metrics.Relaxations)
				}
				if res.Metrics.Relaxations == 0 {
					t.Fatal("no relaxations counted")
				}
				res, err = wasp.RunContext(cancelled, g, src, opt)
				if !errors.Is(err, wasp.ErrCancelled) {
					t.Fatalf("pre-cancelled run: %v", err)
				}
				if res.Metrics == nil || res.Metrics.Relaxations != 0 || res.Progress.Relaxations != 0 {
					t.Fatalf("pre-cancelled run: Metrics %+v, Progress %+v", res.Metrics, res.Progress)
				}
			})
		}
	}
}

func TestReached(t *testing.T) {
	g := wasp.FromEdges(3, true, []wasp.Edge{{From: 0, To: 1, W: 1}})
	res, err := wasp.Run(g, 0, wasp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Progress.Reached != 2 {
		t.Fatalf("reached = %d, want 2", res.Progress.Reached)
	}
}

func TestGraphIOThroughAPI(t *testing.T) {
	g := wasp.FromEdges(3, false, []wasp.Edge{{From: 0, To: 1, W: 2}, {From: 1, To: 2, W: 3}})
	var buf bytes.Buffer
	if err := wasp.WriteBinaryGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := wasp.ReadBinaryGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 3 || g2.NumEdges() != 4 {
		t.Fatalf("round trip: %v", g2)
	}
	var tbuf bytes.Buffer
	if err := wasp.WriteTextGraph(&tbuf, g); err != nil {
		t.Fatal(err)
	}
	g3, err := wasp.ReadTextGraph(&tbuf)
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumEdges() != g.NumEdges() {
		t.Fatal("text round trip changed edges")
	}
}

func TestWorkloadRegistry(t *testing.T) {
	if len(wasp.Workloads(false)) != 13 || len(wasp.Workloads(true)) != 22 {
		t.Fatalf("workload counts: %d / %d", len(wasp.Workloads(false)), len(wasp.Workloads(true)))
	}
	if _, err := wasp.GenerateWorkload("not-a-graph", wasp.WorkloadConfig{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestStatsThroughAPI(t *testing.T) {
	g, _ := wasp.GenerateWorkload("mawi", wasp.WorkloadConfig{N: 2000, Seed: 1})
	s := wasp.Stats(g)
	if s.Vertices != g.NumVertices() || s.MaxOutDegree == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestWaspWithPresetTopologies(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	g, _ := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: 2000, Seed: 2})
	src := wasp.SourceInLargestComponent(g, 1)
	for _, top := range []wasp.Topology{wasp.TopologyEPYC, wasp.TopologyXEON} {
		res, err := wasp.Run(g, src, wasp.Options{
			Algorithm: wasp.AlgoWasp, Workers: 4, Topology: top, Verify: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Progress.Reached == 0 {
			t.Fatal("nothing reached")
		}
	}
}
