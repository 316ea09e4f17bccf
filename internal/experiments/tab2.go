package experiments

import (
	"fmt"
	"time"

	"wasp/internal/core"
)

// RunTable2 regenerates Table 2: the geometric-mean speedup of Wasp
// over each baseline across the main graphs. The paper reports rows
// for its two machines (EPYC and XEON); with a simulated NUMA
// hierarchy only Wasp's victim-ordering changes between the two, so
// the table shows one row per preset topology plus the host default.
func RunTable2(r *Runner) error {
	fmt.Fprintf(r.Cfg.Out, "== Table 2: gmean speedup of Wasp over baselines (%d workers) ==\n", r.Cfg.Workers)
	ws, err := r.MainWorkloads()
	if err != nil {
		return err
	}
	baselines := []AlgoSpec{AlgoDeltaStar, AlgoGalois, AlgoGAP, AlgoGBBS, AlgoMQ, AlgoRho}
	header := []string{"topology"}
	for _, b := range baselines {
		header = append(header, b.Name)
	}
	header = append(header, "gmean")
	t := &Table{Header: header}

	for _, machine := range []string{"host", "EPYC", "XEON"} {
		top := TopologyFor(machine)
		// Wasp's time per workload under this victim-ordering, tuned Δ.
		waspTime := map[string]time.Duration{}
		for _, w := range ws {
			delta := r.Tune(w, AlgoWasp, r.Cfg.Workers).Delta
			waspTime[w.Name] = r.Best(w, AlgoWasp.Name+"/"+machine, delta, func() []uint32 {
				return core.Run(w.G, w.Src, core.Options{
					Delta: delta, Workers: r.Cfg.Workers, Topology: top,
				}).Dist
			})
		}
		row := []string{machine}
		var all []float64
		for _, b := range baselines {
			var per []float64
			for _, w := range ws {
				bt := r.Tune(w, b, r.Cfg.Workers).Time
				per = append(per, float64(bt)/float64(waspTime[w.Name]))
			}
			g := GeoMean(per)
			all = append(all, per...)
			row = append(row, fmt.Sprintf("%.2fx", g))
		}
		row = append(row, fmt.Sprintf("%.2fx", GeoMean(all)))
		t.Add(row...)
	}
	return r.Emit("tab2", t)
}
