package experiments

import (
	"fmt"
	"time"

	"wasp/internal/baseline/relaxed"
	"wasp/internal/metrics"
	"wasp/internal/mq"
)

// RunFig2 regenerates Figure 2: the share of execution time the
// MultiQueue-based parallel Dijkstra spends inside queue operations
// (pushes and pops, including lock acquisition and heap maintenance).
// The paper reports 20–30% on most graphs.
func RunFig2(r *Runner) error {
	fmt.Fprintf(r.Cfg.Out, "== Figure 2: MultiQueue execution breakdown (%d workers) ==\n", r.Cfg.Workers)
	ws, err := r.MainWorkloads()
	if err != nil {
		return err
	}
	t := &Table{Header: []string{"graph", "time", "queue-ops", "queue%"}}
	for _, w := range ws {
		m := metrics.NewSet(r.Cfg.Workers)
		elapsed := Timed(func() {
			relaxed.RunMQ(w.G, w.Src, mq.Config{}, relaxed.Options{
				Workers: r.Cfg.Workers, Timing: true, Metrics: m,
			})
		})
		share := float64(m.QueueOpTime()) / float64(time.Duration(r.Cfg.Workers)*elapsed)
		t.Add(w.Abbr, elapsed.String(), m.QueueOpTime().String(),
			fmt.Sprintf("%.1f%%", 100*share))
	}
	return r.Emit("fig2", t)
}
