package experiments

import (
	"fmt"
	"time"

	"wasp/internal/core"
	"wasp/internal/metrics"
)

// RunBreakdown is a beyond-the-paper analysis applying the paper's own
// methodology (Figures 1 and 2 break down GAP and the MultiQueue) to
// Wasp itself: per graph, the share of worker time spent inside steal
// rounds and idling at priority ∞, plus the steal economy (hits per
// round). The paper's §4 design goal — threads busy with useful work,
// stealing cheap — is verifiable here: steal+idle shares should stay
// far below the barrier/queue shares of the baselines.
func RunBreakdown(r *Runner) error {
	fmt.Fprintf(r.Cfg.Out, "== Wasp execution breakdown (%d workers, tuned Δ) ==\n", r.Cfg.Workers)
	ws, err := r.MainWorkloads()
	if err != nil {
		return err
	}
	t := &Table{Header: []string{
		"graph", "time", "steal%", "idle%", "rounds", "hits", "hit-rate",
	}}
	for _, w := range ws {
		delta := r.Tune(w, AlgoWasp, r.Cfg.Workers).Delta
		m := metrics.NewSet(r.Cfg.Workers)
		elapsed := r.timeSolve(w, AlgoWasp.Name, delta, func() []uint32 {
			return core.Run(w.G, w.Src, core.Options{
				Delta: delta, Workers: r.Cfg.Workers, Metrics: m, Timing: true,
			}).Dist
		})
		tot := m.Totals()
		workerTime := float64(time.Duration(r.Cfg.Workers) * elapsed)
		hitRate := 0.0
		if tot.StealRounds > 0 {
			hitRate = float64(tot.StealHits) / float64(tot.StealRounds)
		}
		t.Add(w.Abbr, elapsed.String(),
			fmt.Sprintf("%.1f%%", 100*float64(tot.StealNS)/workerTime),
			fmt.Sprintf("%.1f%%", 100*float64(tot.IdleNS)/workerTime),
			fmt.Sprint(tot.StealRounds), fmt.Sprint(tot.StealHits),
			fmt.Sprintf("%.2f", hitRate))
	}
	return r.Emit("breakdown", t)
}
