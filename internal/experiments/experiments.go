// Package experiments reproduces every table and figure of the Wasp
// paper's evaluation (§5 and Appendix A) on the synthetic scale-model
// workloads. Each experiment renders a plain-text table whose rows
// correspond to the paper's plot series; EXPERIMENTS.md records the
// paper-vs-measured comparison. DESIGN.md §3 is the index.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"wasp/internal/baseline/dijkstra"
	"wasp/internal/gen"
	"wasp/internal/graph"
	"wasp/internal/verify"
)

// Config parameterizes a harness run.
type Config struct {
	// Scale is the approximate vertex count of each workload
	// (default 1<<14). The paper's graphs are 3M–226M vertices; the
	// generators reproduce each class's structure at this size.
	Scale int
	// Workers is the maximum worker count (default GOMAXPROCS).
	Workers int
	// Trials per timed configuration; the best time is kept, as in the
	// GAP measurement methodology the paper follows (default 3).
	Trials int
	// Seed for workload generation and source selection.
	Seed uint64
	// Out receives the rendered tables (default: io.Discard if nil).
	Out io.Writer
	// CSVDir, when non-empty, additionally writes each table as
	// <CSVDir>/<experiment>[-qualifier].csv for downstream plotting —
	// the analogue of the paper artifact's parse-and-plot pipeline.
	CSVDir string
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1 << 14
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// Workload is a prepared benchmark input: the graph, the fixed source
// in its largest component, and the Dijkstra reference (distances and
// minimal relaxation count).
type Workload struct {
	Name string
	Abbr string
	G    *graph.Graph
	Src  graph.Vertex
	Ref  *dijkstra.Result
}

// Runner prepares workloads lazily and caches them across experiments.
type Runner struct {
	Cfg   Config
	cache map[string]*Workload
	tuned map[tuneKey]Tuned
	wrong error // the running experiment's first solve with wrong distances
}

// NewRunner returns a Runner with the given config.
func NewRunner(cfg Config) *Runner {
	return &Runner{Cfg: cfg.withDefaults(), cache: map[string]*Workload{}}
}

// Workload builds (or returns the cached) named workload.
func (r *Runner) Workload(name string) (*Workload, error) {
	if w, ok := r.cache[name]; ok {
		return w, nil
	}
	spec, err := gen.Lookup(name)
	if err != nil {
		return nil, err
	}
	// Mix the workload name into the seed so workloads sharing a
	// generator class (e.g. the two road networks) differ.
	seed := r.Cfg.Seed
	for _, c := range spec.Name {
		seed = seed*131 + uint64(c)
	}
	cfg := gen.Config{N: r.Cfg.Scale, Seed: seed}
	if spec.Appendix {
		// Appendix graphs use the reviewers' truncated-normal weights.
		cfg.Weight = gen.WeightNormal
	}
	g := spec.Gen(cfg)
	src := graph.SourceInLargestComponent(g, r.Cfg.Seed)
	w := &Workload{Name: spec.Name, Abbr: spec.Abbr, G: g, Src: src, Ref: dijkstra.Run(g, src)}
	r.cache[name] = w
	return w, nil
}

// MainWorkloads returns the 13 Table 1 workloads.
func (r *Runner) MainWorkloads() ([]*Workload, error) {
	return r.workloads(gen.Names(false))
}

// AppendixWorkloads returns the 9 Table 4 workloads.
func (r *Runner) AppendixWorkloads() ([]*Workload, error) {
	var names []string
	for _, s := range gen.Registry {
		if s.Appendix {
			names = append(names, s.Name)
		}
	}
	return r.workloads(names)
}

func (r *Runner) workloads(names []string) ([]*Workload, error) {
	out := make([]*Workload, 0, len(names))
	for _, n := range names {
		w, err := r.Workload(n)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// Best times Trials solves of w, each checked as timeSolve checks it,
// and returns the fastest.
func (r *Runner) Best(w *Workload, algo string, delta uint32, solve func() []uint32) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < r.Cfg.Trials; i++ {
		best = min(best, r.timeSolve(w, algo, delta, solve))
	}
	return best
}

// timeSolve times one solve of w. Outside the timed region it compares
// the distances with w's Dijkstra reference: a mismatch fails the
// running experiment, naming algo, the workload and delta.
func (r *Runner) timeSolve(w *Workload, algo string, delta uint32, solve func() []uint32) time.Duration {
	var dist []uint32
	elapsed := Timed(func() { dist = solve() })
	if err := verify.Equal(dist, w.Ref.Dist); err != nil && r.wrong == nil {
		r.wrong = fmt.Errorf("%s on %s at Δ=%d: %w", algo, w.Name, delta, err)
	}
	return elapsed
}

// Timed measures one invocation of f.
func Timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// GeoMean returns the geometric mean of xs (which must be positive).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// DeltaSweep is the Δ grid used when tuning, powers of two as in the
// paper's methodology ("sampling the space of possible choices using
// powers of two").
var DeltaSweep = []uint32{1, 4, 16, 64, 256, 1024, 4096, 1 << 14, 1 << 16}

// Table renders rows as fixed-width columns.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Emit renders the table to the configured output and, when CSVDir is
// set, writes it as name.csv there.
func (r *Runner) Emit(name string, t *Table) error {
	t.Render(r.Cfg.Out)
	if r.Cfg.CSVDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(r.Cfg.CSVDir, name+".csv"))
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteCSV writes the table in RFC 4180 form.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
}

// Experiment is a registered, runnable reproduction target.
type Experiment struct {
	ID    string // e.g. "fig5"
	Title string // the paper element it regenerates
	run   func(*Runner) error
}

// Run runs the experiment on r. It fails when a solve it timed returned
// distances other than the workload's Dijkstra reference.
func (e Experiment) Run(r *Runner) error {
	r.wrong = nil
	if err := e.run(r); err != nil {
		return err
	}
	return r.wrong
}

// All returns the experiment registry in paper order.
func All() []Experiment {
	return []Experiment{
		{"tab1", "Table 1: dataset inventory", RunTable1},
		{"fig1", "Figure 1 (right): GAP barrier overhead breakdown", RunFig1},
		{"fig2", "Figure 2: MultiQueue queue-operation breakdown", RunFig2},
		{"fig4", "Figure 4: optimal Δ per graph and implementation", RunFig4},
		{"fig5", "Figure 5: performance heatmap, all implementations", RunFig5},
		{"fig6", "Figure 6: strong scaling on four representative graphs", RunFig6},
		{"fig7", "Figure 7: optimizations ablation study", RunFig7},
		{"fig8", "Figure 8: priority drift (relaxations vs Δ)", RunFig8},
		{"tab2", "Table 2: geometric-mean speedup of Wasp over baselines", RunTable2},
		{"tab3", "Table 3: self-speedup per implementation", RunTable3},
		{"steal", "§4.2: steal-policy comparison", RunStealPolicies},
		{"fig9", "Appendix Table 4 + Figure 9: additional datasets", RunFig9},
		{"ext", "Extension (§6): SMQ/MBQ/MQ substrates under one driver", RunExtensions},
		{"ext2", "Extension (§6): radius/algebraic/seq-Δ/KLA algorithms", RunExtensions2},
		{"breakdown", "Extension: Wasp execution breakdown (Figs 1–2 methodology)", RunBreakdown},
		{"sizes", "Extension: per-edge cost vs graph size", RunSizes},
	}
}

// ByID finds a registered experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(All()))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}
