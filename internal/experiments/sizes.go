package experiments

import (
	"fmt"

	"wasp/internal/baseline/dijkstra"
	"wasp/internal/gen"
	"wasp/internal/graph"
)

// RunSizes is a supplementary size-scaling analysis: the per-edge cost
// of Wasp, GAP and Δ*-stepping as the workload grows from one quarter
// of Config.Scale to double it, on one skewed and one large-diameter
// class. Flat ns/edge curves mean the algorithm's overheads are
// amortizing; rising curves expose super-linear costs (e.g. bucket
// management on growing road diameters).
func RunSizes(r *Runner) error {
	fmt.Fprintf(r.Cfg.Out, "== Size scaling: ns per edge (%d workers, tuned Δ at base scale) ==\n", r.Cfg.Workers)
	scales := []int{r.Cfg.Scale / 4, r.Cfg.Scale / 2, r.Cfg.Scale, r.Cfg.Scale * 2}
	algos := []AlgoSpec{AlgoWasp, AlgoGAP, AlgoDeltaStar}
	for _, class := range []string{"kron", "road-usa"} {
		header := []string{"impl"}
		for _, s := range scales {
			header = append(header, fmt.Sprintf("|V|=%d", s))
		}
		t := &Table{Header: header}
		// Tune Δ once at the base scale, per the FAST workflow of the
		// paper artifact (tuning at every size would dominate).
		base, err := r.Workload(class)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.Cfg.Out, "\n-- %s --\n", base.Abbr)
		for _, a := range algos {
			delta := r.Tune(base, a, r.Cfg.Workers).Delta
			row := []string{a.Name}
			for _, s := range scales {
				g, err := gen.Generate(class, gen.Config{N: s, Seed: r.Cfg.Seed})
				if err != nil {
					return err
				}
				src := graph.SourceInLargestComponent(g, r.Cfg.Seed)
				w := &Workload{Name: class, Abbr: base.Abbr, G: g, Src: src,
					Ref: dijkstra.Run(g, src)}
				d := r.Best(w, a.Name, delta, func() []uint32 { return a.Run(w, delta, r.Cfg.Workers, nil) })
				row = append(row, fmt.Sprintf("%.1f", float64(d)/float64(g.NumEdges())))
			}
			t.Add(row...)
		}
		if err := r.Emit("sizes-"+base.Abbr, t); err != nil {
			return err
		}
	}
	return nil
}
