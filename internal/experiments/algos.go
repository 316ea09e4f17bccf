package experiments

import (
	"time"

	"wasp/internal/baseline/gapds"
	"wasp/internal/baseline/gbbs"
	"wasp/internal/baseline/relaxed"
	"wasp/internal/baseline/stepping"
	"wasp/internal/core"
	"wasp/internal/metrics"
	"wasp/internal/mq"
	"wasp/internal/numa"
)

// AlgoSpec adapts one implementation to the harness: a uniform
// (workload, Δ, workers, metrics) → distances interface.
type AlgoSpec struct {
	Name      string
	UsesDelta bool // whether Δ tuning applies
	Run       func(w *Workload, delta uint32, workers int, m *metrics.Set) []uint32
}

// Harness adapters. Order follows the paper's Figure 5 rows.
var (
	AlgoWasp = AlgoSpec{"wasp", true, func(w *Workload, delta uint32, p int, m *metrics.Set) []uint32 {
		return core.Run(w.G, w.Src, core.Options{Delta: delta, Workers: p, Metrics: m}).Dist
	}}
	AlgoDeltaStar = AlgoSpec{"delta-star", true, func(w *Workload, delta uint32, p int, m *metrics.Set) []uint32 {
		return stepping.Run(w.G, w.Src, stepping.Options{
			Algorithm: stepping.DeltaStar, Delta: delta, Workers: p, Metrics: m,
		}).Dist
	}}
	AlgoGalois = AlgoSpec{"galois", true, func(w *Workload, delta uint32, p int, m *metrics.Set) []uint32 {
		return relaxed.RunOBIM(w.G, w.Src, delta, relaxed.Options{Workers: p, Metrics: m})
	}}
	AlgoGAP = AlgoSpec{"gap", true, func(w *Workload, delta uint32, p int, m *metrics.Set) []uint32 {
		return gapds.Run(w.G, w.Src, gapds.Options{Delta: delta, Workers: p, Metrics: m}).Dist
	}}
	AlgoGBBS = AlgoSpec{"gbbs", true, func(w *Workload, delta uint32, p int, m *metrics.Set) []uint32 {
		return gbbs.Run(w.G, w.Src, gbbs.Options{Delta: delta, Workers: p, Metrics: m}).Dist
	}}
	AlgoMQ = AlgoSpec{"multiqueue", false, func(w *Workload, _ uint32, p int, m *metrics.Set) []uint32 {
		return relaxed.RunMQ(w.G, w.Src, mq.Config{}, relaxed.Options{Workers: p, Metrics: m})
	}}
	AlgoRho = AlgoSpec{"rho", false, func(w *Workload, _ uint32, p int, m *metrics.Set) []uint32 {
		return stepping.Run(w.G, w.Src, stepping.Options{
			Algorithm: stepping.Rho, Workers: p, Metrics: m,
		}).Dist
	}}
)

// AllAlgos lists every implementation in the Figure 5 comparison.
var AllAlgos = []AlgoSpec{
	AlgoDeltaStar, AlgoGalois, AlgoGAP, AlgoGBBS, AlgoMQ, AlgoRho, AlgoWasp,
}

// Tuned is the result of Δ-tuning one implementation on one workload.
type Tuned struct {
	Delta uint32
	Time  time.Duration
}

// Tune sweeps DeltaSweep (single trial per point, then Trials at the
// winner, following the paper's two-phase tuning) and memoizes the
// result per (workload, algorithm, workers).
func (r *Runner) Tune(w *Workload, a AlgoSpec, workers int) Tuned {
	key := tuneKey{w.Name, a.Name, workers}
	if r.tuned == nil {
		r.tuned = map[tuneKey]Tuned{}
	}
	if t, ok := r.tuned[key]; ok {
		return t
	}
	sweep := DeltaSweep
	if !a.UsesDelta {
		sweep = []uint32{1}
	}
	best := Tuned{Delta: sweep[0], Time: 1<<63 - 1}
	for _, delta := range sweep {
		d := r.timeSolve(w, a.Name, delta, func() []uint32 { return a.Run(w, delta, workers, nil) })
		if d < best.Time {
			best = Tuned{Delta: delta, Time: d}
		}
	}
	best.Time = r.Best(w, a.Name, best.Delta, func() []uint32 {
		return a.Run(w, best.Delta, workers, nil)
	})
	r.tuned[key] = best
	return best
}

type tuneKey struct {
	graph   string
	algo    string
	workers int
}

// TopologyFor exposes the preset machine layouts used by the Wasp rows
// of Table 2.
func TopologyFor(machine string) numa.Topology {
	switch machine {
	case "EPYC":
		return numa.EPYC7713
	case "XEON":
		return numa.XEON6438Y
	default:
		return numa.Topology{}
	}
}
