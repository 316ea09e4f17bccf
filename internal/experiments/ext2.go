package experiments

import (
	"fmt"

	"wasp/internal/algebra"
	"wasp/internal/baseline/gapds"
	"wasp/internal/baseline/radius"
	"wasp/internal/baseline/seqdelta"
	"wasp/internal/metrics"
)

// RunExtensions2 is a second beyond-the-paper experiment covering the
// remaining related-work algorithms (§6): radius-stepping, the
// GraphBLAS-style algebraic Δ-stepping, the original sequential
// Δ-stepping of Meyer and Sanders, and the KLA-style k-level fusion
// extension of GAP Δ-stepping. Cells are slowdowns relative to Wasp
// with its tuned Δ on the same graph.
func RunExtensions2(r *Runner) error {
	fmt.Fprintf(r.Cfg.Out, "== Extension 2: related-work algorithms (%d workers) ==\n", r.Cfg.Workers)
	ws, err := r.MainWorkloads()
	if err != nil {
		return err
	}
	p := r.Cfg.Workers
	type sub struct {
		name string
		run  func(w *Workload, delta uint32, m *metrics.Set) []uint32
	}
	subs := []sub{
		{"radius", func(w *Workload, _ uint32, m *metrics.Set) []uint32 {
			return radius.Run(w.G, w.Src, radius.Options{Workers: p, Metrics: m}).Dist
		}},
		{"algebraic", func(w *Workload, delta uint32, m *metrics.Set) []uint32 {
			return algebra.Run(w.G, w.Src, algebra.Options{Delta: delta, Workers: p, Metrics: m}).Dist
		}},
		{"seq-delta", func(w *Workload, delta uint32, m *metrics.Set) []uint32 {
			return seqdelta.Run(w.G, w.Src, seqdelta.Options{Delta: delta}).Dist
		}},
		{"gap-kla8", func(w *Workload, delta uint32, m *metrics.Set) []uint32 {
			return gapds.Run(w.G, w.Src, gapds.Options{
				Delta: delta, Workers: p, KLevels: 8, Metrics: m,
			}).Dist
		}},
	}
	header := []string{"graph", "wasp"}
	for _, s := range subs {
		header = append(header, s.name)
	}
	t := &Table{Header: header}
	ratios := make([][]float64, len(subs))
	for _, w := range ws {
		tuned := r.Tune(w, AlgoWasp, p)
		row := []string{w.Abbr, fmt.Sprintf("%.2fms", float64(tuned.Time)/1e6)}
		for si, s := range subs {
			// Reuse GAP's tuned Δ for the Δ-based newcomers: each is a
			// Δ-stepping relative, and a full per-algorithm sweep here
			// would dominate harness time.
			delta := r.Tune(w, AlgoGAP, p).Delta
			d := r.Best(w, s.name, delta, func() []uint32 { return s.run(w, delta, nil) })
			ratio := float64(d) / float64(tuned.Time)
			ratios[si] = append(ratios[si], ratio)
			row = append(row, fmt.Sprintf("%.2fx", ratio))
		}
		t.Add(row...)
	}
	gm := []string{"gmean", "1.00x"}
	for _, xs := range ratios {
		gm = append(gm, fmt.Sprintf("%.2fx", GeoMean(xs)))
	}
	t.Add(gm...)
	if err := r.Emit("ext2", t); err != nil {
		return err
	}
	fmt.Fprintln(r.Cfg.Out, "(cells: slowdown vs Wasp on the same graph)")
	return nil
}
