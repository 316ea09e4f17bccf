package experiments

import (
	"fmt"
	"math"
	"time"

	"wasp/internal/baseline/relaxed"
	"wasp/internal/metrics"
	"wasp/internal/mq"
)

// RunFig2 regenerates Figure 2: the share of execution time the
// MultiQueue-based parallel Dijkstra spends inside queue operations
// (pushes and pops, including lock acquisition and heap maintenance).
// The paper reports 20–30% on most graphs. Each row is the fastest of
// Trials solves, with that solve's queue-op time.
func RunFig2(r *Runner) error {
	fmt.Fprintf(r.Cfg.Out, "== Figure 2: MultiQueue execution breakdown (%d workers) ==\n", r.Cfg.Workers)
	ws, err := r.MainWorkloads()
	if err != nil {
		return err
	}
	t := &Table{Header: []string{"graph", "time", "queue-ops", "queue%"}}
	for _, w := range ws {
		elapsed, ops := time.Duration(math.MaxInt64), time.Duration(0)
		for i := 0; i < r.Cfg.Trials; i++ {
			m := metrics.NewSet(r.Cfg.Workers)
			d := r.timeSolve(w, AlgoMQ.Name, 1, func() []uint32 {
				return relaxed.RunMQ(w.G, w.Src, mq.Config{}, relaxed.Options{
					Workers: r.Cfg.Workers, Timing: true, Metrics: m,
				})
			})
			if d < elapsed {
				elapsed, ops = d, m.QueueOpTime()
			}
		}
		share := float64(ops) / float64(time.Duration(r.Cfg.Workers)*elapsed)
		t.Add(w.Abbr, elapsed.String(), ops.String(), fmt.Sprintf("%.1f%%", 100*share))
	}
	return r.Emit("fig2", t)
}
