package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"wasp"
	"wasp/internal/baseline/dijkstra"
)

func TestScheduleDeterministic(t *testing.T) {
	g, err := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: 1 << 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		a := newSchedule(w, g, 1, time.Second, 4*time.Second)
		b := newSchedule(w, g, 1, time.Second, 4*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different schedules", w.name)
		}
		if c := newSchedule(w, g, 2, time.Second, 4*time.Second); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule", w.name)
		}
		if want := int(math.Round(w.readQPS * 5)); len(a.Warmup)+len(a.Window) != want {
			t.Errorf("%s: %d ops, want %d", w.name, len(a.Warmup)+len(a.Window), want)
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, n := range []int{20, 120, 225, 999, 1000, 1001, 4500} {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		rand.Shuffle(n, func(i, j int) { v[i], v[j] = v[j], v[i] })
		got, q := tail(sorted(v))
		beyond := n - int(got)
		wantBeyond := max(minBeyond, int(math.Floor(float64(n)*0.01+1e-9)))
		if beyond != wantBeyond {
			t.Errorf("n=%d: tail %v (q=%.4f) leaves %d samples beyond it, want %d", n, got, q, beyond, wantBeyond)
		}
		if n >= 1000 && q != 0.99 {
			t.Errorf("n=%d: quantile %v, want 0.99", n, q)
		}
	}

	// A failed operation counts as +Inf: enough failures push the tail
	// past every answered latency, never the median.
	out := make([]outcome, 200)
	for i := range out {
		out[i] = outcome{Due: 0, Done: time.Duration(i+1) * time.Millisecond}
		if i%10 == 0 {
			out[i].Err = errors.New("status 503")
		}
	}
	lat := sorted(latenciesMS(out))
	if v, _ := tail(lat); !math.IsInf(v, 1) {
		t.Errorf("20 failures in 200: tail %v, want +Inf", v)
	}
	if p50 := percentile(lat, 0.5); math.IsInf(p50, 1) || p50 > 120 {
		t.Errorf("p50 %v with failures counted as +Inf", p50)
	}
}

const promBefore = `# HELP ssspd_solve_duration_seconds Latency of pool solves, admission wait included.
# TYPE ssspd_solve_duration_seconds histogram
ssspd_solve_duration_seconds_bucket{le="0.1"} 3
ssspd_solve_duration_seconds_bucket{le="+Inf"} 4
ssspd_solve_duration_seconds_sum 0.25
ssspd_solve_duration_seconds_count 4
ssspd_graph_version{graph="default"} 1
ssspd_solves_completed_total 4
ssspd_cache_hits_total 10
ssspd_audits_total{outcome="passed"} 1
ssspd_scheduler_relaxations_total 4.1e+06
`

const promAfter = `# HELP ssspd_solve_duration_seconds Latency of pool solves, admission wait included.
# TYPE ssspd_solve_duration_seconds histogram
ssspd_solve_duration_seconds_bucket{le="0.1"} 9
ssspd_solve_duration_seconds_bucket{le="+Inf"} 11
ssspd_solve_duration_seconds_sum 0.75
ssspd_solve_duration_seconds_count 11
ssspd_graph_version{graph="default"} 2
ssspd_solves_completed_total 2
ssspd_cache_hits_total 25
ssspd_audits_total{outcome="passed"} 3
ssspd_scheduler_relaxations_total 2.2e+06
`

// TestParseProm reads scrapes from either side of a graph version swap:
// every series the bench diffs keeps counting across it.
func TestParseProm(t *testing.T) {
	before, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	if got := after[`ssspd_solve_duration_seconds_bucket{le="+Inf"}`]; got != 11 {
		t.Errorf("+Inf bucket parsed as %v", got)
	}
	if got := after["ssspd_scheduler_relaxations_total"]; got != 2.2e6 {
		t.Errorf("exponent value parsed as %v", got)
	}
	for series, want := range map[string]float64{
		"ssspd_cache_hits_total":                        15,
		"ssspd_solve_duration_seconds_count":            7,
		"ssspd_solve_duration_seconds_sum":              0.5,
		`ssspd_audits_total{outcome="passed"}`:          2,
		`ssspd_solve_duration_seconds_bucket{le="0.1"}`: 6,
	} {
		if got, err := delta(before, after, series); err != nil || got != want {
			t.Errorf("delta %s = %v, %v; want %v", series, got, err, want)
		}
	}
	if _, err := delta(before, after, "ssspd_governor_sheds_total"); err == nil {
		t.Error("delta of an absent series succeeded")
	}
	if _, err := parseProm(strings.NewReader("ssspd_cache_hits_total many\n")); err == nil {
		t.Error("a malformed value parsed")
	}
}

func TestParseFlagDefaults(t *testing.T) {
	const usage = `Usage of ssspd:
  -addr string
    	listen address (default ":8080")
  -brownout
    	adaptive overload governor (default true)
  -deadline duration
    	per-solve latency budget (0 = none)
  -v	one-letter bool flags share the line (default true)
  -scrub-interval duration
    	cadence of the scrubber (0 disables scrubbing) (default 1m0s)
`
	want := map[string]string{"addr": `":8080"`, "brownout": "true", "deadline": "", "v": "true", "scrub-interval": "1m0s"}
	if got := parseFlagDefaults(usage); !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %v, want %v", got, want)
	}
}

func TestCheckAnswers(t *testing.T) {
	g, err := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: 1 << 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := dijkstra.Distances(g, 7)
	as := []answer{{source: 7, target: 100, dist: d[100]}, {source: 7, target: 200, dist: d[200]}}
	if n, err := checkAnswers(g, as, 1); err != nil || n != 2 {
		t.Fatalf("checked %d answers: %v", n, err)
	}
	as[1].dist++
	if _, err := checkAnswers(g, as, 1); err == nil {
		t.Error("a wrong distance passed")
	}
}

// TestSmokeRoadHit runs road-hit on a 2^12-vertex graph for 2s, untraced
// and traced, and checks that every metric BENCHMARK.json declares is
// printed with its unit.
func TestSmokeRoadHit(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}

	bin := filepath.Join(t.TempDir(), "ssspd")
	if out, err := exec.Command("go", "build", "-o", bin, "wasp/cmd/ssspd").CombinedOutput(); err != nil {
		t.Fatalf("build ssspd: %v\n%s", err, out)
	}
	w, _ := findWorkload("road-hit")
	for _, traced := range []bool{false, true} {
		declared := spec.EndToEnd
		if traced {
			declared = spec.PerLayer
		}
		cfg := config{w: w, n: 1 << 12, seed: 1, warmup: 500 * time.Millisecond, window: 2 * time.Second,
			trace: traced, ssspd: bin, out: t.TempDir(), conns: 2}
		var log bytes.Buffer
		rep, err := run(context.Background(), cfg, &log)
		if err != nil {
			t.Fatalf("trace=%t: %v\n%s", traced, err, log.String())
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("trace=%t: correct=%t failed=%d attempted=%d\n%s", traced, rep.Correct, rep.Failed, rep.Attempted, log.String())
		}
		if len(rep.Metrics) != len(declared) {
			t.Errorf("trace=%t: %d metrics printed, BENCHMARK.json declares %d", traced, len(rep.Metrics), len(declared))
		}
		printed := map[string]string{} // name → unit, from the "name value unit" lines
		for _, line := range strings.Split(log.String(), "\n") {
			if f := strings.Fields(line); len(f) == 3 {
				printed[f[0]] = f[2]
			}
		}
		for _, d := range declared {
			if m, ok := rep.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace=%t: metric %s: got %+v, want unit %s", traced, d.Name, m, d.Unit)
			}
			if printed[d.Name] != d.Unit {
				t.Errorf("trace=%t: %s printed with unit %q, want %q", traced, d.Name, printed[d.Name], d.Unit)
			}
		}
	}
}
