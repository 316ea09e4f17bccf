package experiments

import (
	"fmt"
	"time"

	"wasp/internal/core"
	"wasp/internal/numa"
)

// RunStealPolicies regenerates the §4.2 steal-protocol comparison: the
// geometric-mean slowdown (across the main graphs) of traditional
// random-victim stealing and MultiQueue-like two-choice stealing,
// each with no retries and with up-to-64 retries, relative to Wasp's
// NUMA-tiered priority-aware protocol. The paper reports random 50%
// (no-retry) to 36% (64-retry) slower and two-choice 39% to 27% slower.
func RunStealPolicies(r *Runner) error {
	fmt.Fprintf(r.Cfg.Out, "== §4.2: steal-policy comparison (%d workers, tuned Δ) ==\n", r.Cfg.Workers)
	ws, err := r.MainWorkloads()
	if err != nil {
		return err
	}
	type variant struct {
		label   string
		policy  core.StealPolicy
		retries int
	}
	variants := []variant{
		{"random/no-retry", core.PolicyRandom, 1},
		{"random/64-retries", core.PolicyRandom, 64},
		{"two-choice/no-retry", core.PolicyTwoChoice, 1},
		{"two-choice/64-retries", core.PolicyTwoChoice, 64},
	}

	timeWith := func(w *Workload, algo string, delta uint32, pol core.StealPolicy, retries int) time.Duration {
		return r.Best(w, algo, delta, func() []uint32 {
			return core.Run(w.G, w.Src, core.Options{
				Delta: delta, Workers: r.Cfg.Workers,
				Policy: pol, Retries: retries,
			}).Dist
		})
	}

	t := &Table{Header: []string{"protocol", "gmean slowdown vs wasp"}}
	slow := make([][]float64, len(variants))
	var flatSlow []float64
	for _, w := range ws {
		delta := r.Tune(w, AlgoWasp, r.Cfg.Workers).Delta
		waspT := timeWith(w, AlgoWasp.Name, delta, core.PolicyWasp, 1)
		for vi, v := range variants {
			vt := timeWith(w, AlgoWasp.Name+"/"+v.label, delta, v.policy, v.retries)
			slow[vi] = append(slow[vi], float64(vt)/float64(waspT))
		}
		// NUMA-tier ablation: the Wasp protocol over a flat topology
		// (every victim in one tier) isolates the hierarchy's value.
		ft := r.Best(w, AlgoWasp.Name+"/flat-topology", delta, func() []uint32 {
			return core.Run(w.G, w.Src, core.Options{
				Delta: delta, Workers: r.Cfg.Workers, Topology: numa.Flat,
			}).Dist
		})
		flatSlow = append(flatSlow, float64(ft)/float64(waspT))
	}
	for vi, v := range variants {
		g := GeoMean(slow[vi])
		t.Add(v.label, fmt.Sprintf("%.2fx (%+.0f%%)", g, 100*(g-1)))
	}
	g := GeoMean(flatSlow)
	t.Add("wasp/flat-topology", fmt.Sprintf("%.2fx (%+.0f%%)", g, 100*(g-1)))
	return r.Emit("steal", t)
}
