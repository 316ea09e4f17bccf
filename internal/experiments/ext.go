package experiments

import (
	"fmt"

	"wasp/internal/baseline/relaxed"
	"wasp/internal/mbq"
	"wasp/internal/metrics"
	"wasp/internal/mq"
	"wasp/internal/smq"
)

// RunExtensions is a beyond-the-paper experiment comparing the relaxed
// priority-queue substrates the paper's related work (§6) discusses —
// the MultiQueue, the Stealing MultiQueue, and the Multi Bucket Queue
// — under one identical parallel-Dijkstra driver, against Wasp. It
// isolates the queue structure's contribution: same relaxation code,
// same termination protocol, only the scheduler changes.
func RunExtensions(r *Runner) error {
	fmt.Fprintf(r.Cfg.Out, "== Extension: relaxed-queue substrates under one driver (%d workers) ==\n", r.Cfg.Workers)
	ws, err := r.MainWorkloads()
	if err != nil {
		return err
	}
	type sub struct {
		name  string
		delta uint32
		run   func(w *Workload, delta uint32, m *metrics.Set) []uint32
	}
	p := r.Cfg.Workers
	subs := []sub{
		{"multiqueue", 1, func(w *Workload, _ uint32, m *metrics.Set) []uint32 {
			return relaxed.RunMQ(w.G, w.Src, mq.Config{}, relaxed.Options{Workers: p, Metrics: m})
		}},
		{"smq", 1, func(w *Workload, _ uint32, m *metrics.Set) []uint32 {
			return relaxed.RunSMQ(w.G, w.Src, smq.Config{}, relaxed.Options{Workers: p, Metrics: m})
		}},
		{"mbq", 8, func(w *Workload, delta uint32, m *metrics.Set) []uint32 {
			return relaxed.RunMBQ(w.G, w.Src, mbq.Config{Delta: uint64(delta)}, relaxed.Options{Workers: p, Metrics: m})
		}},
	}
	header := []string{"graph", "wasp"}
	for _, s := range subs {
		header = append(header, s.name)
	}
	t := &Table{Header: header}
	ratios := make([][]float64, len(subs))
	for _, w := range ws {
		waspT := r.Tune(w, AlgoWasp, p).Time
		row := []string{w.Abbr, fmt.Sprintf("%.2fms", float64(waspT)/1e6)}
		for si, s := range subs {
			d := r.Best(w, s.name, s.delta, func() []uint32 { return s.run(w, s.delta, nil) })
			ratio := float64(d) / float64(waspT)
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
	if err := r.Emit("ext", t); err != nil {
		return err
	}
	fmt.Fprintln(r.Cfg.Out, "(cells: slowdown vs Wasp on the same graph)")
	return nil
}
