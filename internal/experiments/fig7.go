package experiments

import (
	"fmt"

	"wasp/internal/core"
)

// ablationVariant names one bar of Figure 7.
type ablationVariant struct {
	Label string
	Opt   func() core.Options // optimization toggles only
}

// AblationVariants are the paper's Figure 7 configurations: BASE (no
// optimizations), each optimization alone, and OPT (all enabled).
var AblationVariants = []ablationVariant{
	{"BASE", func() core.Options {
		return core.Options{NoLeafPruning: true, NoDecomposition: true, NoBidirectional: true}
	}},
	{"BR", func() core.Options {
		return core.Options{NoLeafPruning: true, NoDecomposition: true}
	}},
	{"LP", func() core.Options {
		return core.Options{NoDecomposition: true, NoBidirectional: true}
	}},
	{"ND", func() core.Options {
		return core.Options{NoLeafPruning: true, NoBidirectional: true}
	}},
	{"OPT", func() core.Options { return core.Options{} }},
}

// RunFig7 regenerates Figure 7: speedup of each Wasp optimization
// variant over the Δ*-stepping baseline (the best-performing baseline,
// all of whose own optimizations stay enabled — the paper notes this
// makes BASE-vs-Δ* an unfair comparison that Wasp nevertheless wins on
// all but one graph).
func RunFig7(r *Runner) error {
	fmt.Fprintf(r.Cfg.Out, "== Figure 7: optimizations ablation (speedup over Δ*-stepping, %d workers) ==\n", r.Cfg.Workers)
	ws, err := r.MainWorkloads()
	if err != nil {
		return err
	}
	header := []string{"graph"}
	for _, v := range AblationVariants {
		header = append(header, v.Label)
	}
	t := &Table{Header: header}
	perVariant := make([][]float64, len(AblationVariants))
	for _, w := range ws {
		base := r.Tune(w, AlgoDeltaStar, r.Cfg.Workers)
		waspDelta := r.Tune(w, AlgoWasp, r.Cfg.Workers).Delta
		row := []string{w.Abbr}
		for vi, v := range AblationVariants {
			opt := v.Opt()
			opt.Delta = waspDelta
			opt.Workers = r.Cfg.Workers
			opt.Theta = thetaForScale(r.Cfg.Scale)
			d := r.Best(w, AlgoWasp.Name+"/"+v.Label, waspDelta, func() []uint32 {
				return core.Run(w.G, w.Src, opt).Dist
			})
			speedup := float64(base.Time) / float64(d)
			perVariant[vi] = append(perVariant[vi], speedup)
			row = append(row, fmt.Sprintf("%.2fx", speedup))
		}
		t.Add(row...)
	}
	gm := []string{"gmean"}
	for _, xs := range perVariant {
		gm = append(gm, fmt.Sprintf("%.2fx", GeoMean(xs)))
	}
	t.Add(gm...)
	return r.Emit("fig7", t)
}

// thetaForScale scales the paper's θ=2^20 decomposition threshold to
// the synthetic workload size: the paper's graphs have up to 2^31
// edges; keep θ at ~1/16 of the workload's vertex count so the Mawi
// hub actually decomposes.
func thetaForScale(scale int) int {
	theta := scale / 16
	if theta < 64 {
		theta = 64
	}
	return theta
}
