package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wasp/internal/metrics"
)

// tinyRunner returns a Runner sized so every experiment completes in
// test time.
func tinyRunner(buf *bytes.Buffer) *Runner {
	return NewRunner(Config{Scale: 600, Workers: 2, Trials: 1, Seed: 7, Out: buf})
}

func TestAllExperimentsRun(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	for _, e := range All() {
		before := buf.Len()
		if err := e.Run(r); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out := buf.String()[before:]
		if len(out) < 40 {
			t.Fatalf("%s produced almost no output: %q", e.ID, out)
		}
		if !strings.Contains(out, "==") {
			t.Fatalf("%s output missing header: %q", e.ID, out[:40])
		}
	}
}

// TestWrongDistancesFailTheExperiment: a timed solve whose distances
// differ from the Dijkstra reference fails the experiment that timed
// it, naming the algorithm, workload and Δ; the next experiment starts
// clean.
func TestWrongDistancesFailTheExperiment(t *testing.T) {
	r := tinyRunner(&bytes.Buffer{})
	w, err := r.Workload("urand")
	if err != nil {
		t.Fatal(err)
	}
	planted := AlgoSpec{"planted", true, func(w *Workload, delta uint32, p int, m *metrics.Set) []uint32 {
		d := AlgoWasp.Run(w, delta, p, m)
		d[w.Src]++
		return d
	}}
	tune := func(a AlgoSpec) Experiment {
		return Experiment{ID: "tune-" + a.Name, run: func(r *Runner) error {
			r.Tune(w, a, 2)
			return nil
		}}
	}
	err = tune(planted).Run(r)
	if err == nil || !strings.HasPrefix(err.Error(), "planted on urand at Δ=1: ") {
		t.Fatalf("planted wrong distance: err = %v", err)
	}
	if err := tune(AlgoWasp).Run(r); err != nil {
		t.Fatalf("correct solver after a failed experiment: %v", err)
	}
}

func TestByID(t *testing.T) {
	for _, e := range All() {
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Fatalf("ByID(%s): %v %v", e.ID, got.ID, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestWorkloadCaching(t *testing.T) {
	r := tinyRunner(&bytes.Buffer{})
	a, err := r.Workload("kron")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := r.Workload("kron")
	if a != b {
		t.Fatal("workload not cached")
	}
	if a.Ref == nil || a.Ref.Relaxations == 0 {
		t.Fatal("dijkstra reference missing")
	}
}

func TestWorkloadsPerClassSeedsDiffer(t *testing.T) {
	r := tinyRunner(&bytes.Buffer{})
	usa, _ := r.Workload("road-usa")
	eu, _ := r.Workload("road-eu")
	// Same generator class, different mixed seeds: edge sets differ.
	if usa.G.NumEdges() == eu.G.NumEdges() && usa.Src == eu.Src {
		d1, _ := usa.G.OutNeighbors(0)
		d2, _ := eu.G.OutNeighbors(0)
		same := len(d1) == len(d2)
		if same {
			for i := range d1 {
				if d1[i] != d2[i] {
					same = false
					break
				}
			}
		}
		if same && len(d1) > 0 {
			t.Fatal("road-usa and road-eu generated identically")
		}
	}
}

func TestTuneMemoizes(t *testing.T) {
	r := tinyRunner(&bytes.Buffer{})
	w, _ := r.Workload("urand")
	t1 := r.Tune(w, AlgoWasp, 2)
	t2 := r.Tune(w, AlgoWasp, 2)
	if t1 != t2 {
		t.Fatal("tuning not memoized")
	}
	if t1.Time <= 0 {
		t.Fatal("no time measured")
	}
}

func TestTuneRespectsUsesDelta(t *testing.T) {
	r := tinyRunner(&bytes.Buffer{})
	w, _ := r.Workload("urand")
	tuned := r.Tune(w, AlgoMQ, 1)
	if tuned.Delta != 1 {
		t.Fatalf("Δ-free algorithm tuned to Δ=%d", tuned.Delta)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("GeoMean(2,8) = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("GeoMean(nil) = %v", g)
	}
	if g := GeoMean([]float64{3}); math.Abs(g-3) > 1e-9 {
		t.Fatalf("GeoMean(3) = %v", g)
	}
}

func TestWorkerCounts(t *testing.T) {
	cases := map[int][]int{
		1: {1},
		2: {1, 2},
		5: {1, 2, 4, 5},
		8: {1, 2, 4, 8},
	}
	for max, want := range cases {
		got := workerCounts(max)
		if len(got) != len(want) {
			t.Fatalf("workerCounts(%d) = %v", max, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workerCounts(%d) = %v", max, got)
			}
		}
	}
}

func TestTableRender(t *testing.T) {
	var buf bytes.Buffer
	tab := &Table{Header: []string{"a", "long-header"}}
	tab.Add("x", "1")
	tab.Add("longer-cell", "2")
	tab.Render(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "x          ") {
		t.Fatalf("misaligned: %q", lines[1])
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	tab := &Table{Header: []string{"a", "b"}}
	tab.Add("x", "1,5") // embedded comma must be quoted
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\nx,\"1,5\"\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestEmitWritesCSVFile(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	r := NewRunner(Config{Scale: 500, Workers: 1, Trials: 1, Out: &out, CSVDir: dir})
	tab := &Table{Header: []string{"h"}}
	tab.Add("v")
	if err := r.Emit("unit", tab); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "unit.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "h\nv\n" {
		t.Fatalf("file = %q", data)
	}
	if out.Len() == 0 {
		t.Fatal("text output missing")
	}
}

func TestTimed(t *testing.T) {
	d := Timed(func() { time.Sleep(5 * time.Millisecond) })
	if d < 4*time.Millisecond {
		t.Fatalf("Timed = %v", d)
	}
}

func TestThetaForScale(t *testing.T) {
	if thetaForScale(16) != 64 {
		t.Fatal("minimum theta not applied")
	}
	if thetaForScale(1<<16) != 1<<12 {
		t.Fatalf("theta = %d", thetaForScale(1<<16))
	}
}

func TestTopologyFor(t *testing.T) {
	if TopologyFor("EPYC").TotalCores() != 128 {
		t.Fatal("EPYC preset wrong")
	}
	if TopologyFor("XEON").TotalCores() != 64 {
		t.Fatal("XEON preset wrong")
	}
	if TopologyFor("host").TotalCores() != 0 {
		t.Fatal("host should be the zero topology (auto-sized)")
	}
}
