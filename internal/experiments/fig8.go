package experiments

import (
	"fmt"

	"wasp/internal/metrics"
)

// Fig8Graphs are the eight graphs of the paper's priority drift
// analysis: five skewed-degree graphs and the three low-degree graphs.
var Fig8Graphs = []string{
	"orkut", "sk2005", "twitter", "kron", "urand",
	"road-usa", "road-eu", "kmer",
}

// Fig8Deltas is the Δ series plotted per implementation.
var Fig8Deltas = []uint32{1, 4, 16, 64, 256, 1024, 4096}

// RunFig8 regenerates Figure 8: for GAP, Galois and Wasp, the number
// of edge relaxations (normalized to Dijkstra's, the theoretical
// minimum) and the execution time as Δ varies. The paper's expected
// shape: on skewed-degree graphs Wasp attains the minimum at Δ=1 and
// degrades as Δ grows, Galois relaxes more than Wasp at equal Δ, GAP
// is work-conservative but needs large Δ; on low-degree graphs small Δ
// works for no one and Wasp exploits coarsening best.
func RunFig8(r *Runner) error {
	fmt.Fprintf(r.Cfg.Out, "== Figure 8: priority drift (relaxations ÷ Dijkstra, time in ms; %d workers) ==\n", r.Cfg.Workers)
	algos := []AlgoSpec{AlgoGAP, AlgoGalois, AlgoWasp}
	for _, name := range Fig8Graphs {
		w, err := r.Workload(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.Cfg.Out, "\n-- %s (dijkstra: %d relaxations) --\n", w.Abbr, w.Ref.Relaxations)
		header := []string{"impl"}
		for _, d := range Fig8Deltas {
			header = append(header, fmt.Sprintf("Δ=%d", d))
		}
		t := &Table{Header: header}
		for _, a := range algos {
			relaxRow := []string{a.Name}
			timeRow := []string{a.Name + " ms"}
			for _, delta := range Fig8Deltas {
				m := metrics.NewSet(r.Cfg.Workers)
				elapsed := r.timeSolve(w, a.Name, delta, func() []uint32 {
					return a.Run(w, delta, r.Cfg.Workers, m)
				})
				ratio := float64(m.Totals().Relaxations) / float64(w.Ref.Relaxations)
				relaxRow = append(relaxRow, fmt.Sprintf("%.2f", ratio))
				timeRow = append(timeRow, fmt.Sprintf("%.2f", float64(elapsed)/1e6))
			}
			t.Add(relaxRow...)
			t.Add(timeRow...)
		}
		if err := r.Emit("fig8-"+w.Abbr, t); err != nil {
			return err
		}
	}
	return nil
}
