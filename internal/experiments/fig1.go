package experiments

import (
	"fmt"
	"time"

	"wasp/internal/baseline/gapds"
	"wasp/internal/metrics"
)

// RunFig1 regenerates Figure 1 (right): the share of execution time the
// GAP Δ-stepping implementation spends waiting at barriers, per graph.
// The paper's claim (artifact "Expected Results"): > 20% barrier time
// on at least six of the 13 graphs, worst on the road networks and on
// some skewed-degree graphs.
func RunFig1(r *Runner) error {
	fmt.Fprintf(r.Cfg.Out, "== Figure 1 (right): GAP execution breakdown (%d workers) ==\n", r.Cfg.Workers)
	ws, err := r.MainWorkloads()
	if err != nil {
		return err
	}
	t := &Table{Header: []string{"graph", "time", "steps", "barrier", "barrier%"}}
	for _, w := range ws {
		tuned := r.Tune(w, AlgoGAP, r.Cfg.Workers)
		m := metrics.NewSet(r.Cfg.Workers)
		var steps int64
		elapsed := r.timeSolve(w, AlgoGAP.Name, tuned.Delta, func() []uint32 {
			res := gapds.Run(w.G, w.Src, gapds.Options{
				Delta: tuned.Delta, Workers: r.Cfg.Workers, Metrics: m,
			})
			steps = res.Steps
			return res.Dist
		})
		// Barrier share: summed wait time over total worker time.
		share := float64(m.BarrierTime()) / float64(time.Duration(r.Cfg.Workers)*elapsed)
		t.Add(w.Abbr, elapsed.String(), fmt.Sprint(steps),
			m.BarrierTime().String(), fmt.Sprintf("%.1f%%", 100*share))
	}
	return r.Emit("fig1", t)
}
