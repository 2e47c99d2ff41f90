// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) plus the capacity/efficiency analyses of §3 and §6. Each
// experiment is a function returning a Table whose rows mirror what the
// paper reports; cmd/gnnlab-bench runs them by ID (Lookup) and prints
// them. EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"fmt"
	"strings"

	"gnnlab/internal/core"
	"gnnlab/internal/device"
	"gnnlab/internal/gen"
	"gnnlab/internal/measure"
	"gnnlab/internal/obs"
	"gnnlab/internal/par"
	"gnnlab/internal/workload"
)

// Options controls experiment scale. The zero value means full preset
// scale (the calibrated 1/100-paper configuration) — tests and quick
// benchmarks raise Scale to shrink datasets and GPUs together.
type Options struct {
	// Scale divides the preset datasets and the GPU memory by this
	// factor (1 = calibrated scale).
	Scale int
	// NumGPUs is the machine size (default 8, the paper's testbed).
	NumGPUs int
	// Epochs measured per configuration (default 3; the paper uses 10).
	Epochs int
	Seed   uint64
	// Store, when non-nil, is a shared measurement store: experiment
	// cells whose sampling work has the same content key (dataset,
	// effective sampler, batch size, seed, epochs) measure once and
	// replay many times, as do cache-ranking computations. Tables are
	// bit-identical with or without it; only wall-clock changes.
	// cmd/gnnlab-bench shares one store across all experiments.
	Store *measure.Store
	// Obs, when non-nil, records cross-layer observability (Measure and
	// Cost spans, pipeline counters) for every cell into one recorder.
	// Tables are bit-identical with or without it.
	Obs *obs.Recorder
	// Faults caps the injected-fault sweep of the resilience experiment:
	// its rows double from 1 fault up to this count (0 = the default
	// sweep). Other experiments ignore it.
	Faults int
	// Drift sets the number of mutation rounds for the dynamic-graph drift
	// experiment (0 = the default sweep). Other experiments ignore it.
	Drift int
	// Packed converts every loaded topology to the compressed
	// graph.Packed layout (-packed on gnnlab-bench): samplers decode
	// neighbor rows through the scratch-arena fast path and the planning
	// experiments account the real compressed Vol_G. Results are
	// bit-identical to CSR runs; only topology bytes and sampling
	// wall-clock change.
	Packed bool
}

// Validate rejects negative sizes, which the defaults would pass through
// to a panic inside a cell (a GPU of negative capacity, a slice of
// negative length). Zero keeps each field's default.
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Scale", o.Scale}, {"NumGPUs", o.NumGPUs}, {"Epochs", o.Epochs}, {"Faults", o.Faults}, {"Drift", o.Drift},
	} {
		if f.v < 0 {
			return fmt.Errorf("experiments: %s is %d, want >= 0 (0 keeps the default)", f.name, f.v)
		}
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.NumGPUs == 0 {
		o.NumGPUs = 8
	}
	if o.Epochs == 0 {
		o.Epochs = 3
	}
	if o.Seed == 0 {
		o.Seed = 0x9E1AB
	}
	return o
}

// Quick returns options for fast runs (small datasets, 2 epochs): the same
// code paths at a fraction of the cost, used by tests and -short benches.
func Quick() Options { return Options{Scale: 8, Epochs: 2} }

// load fetches a preset at the configured scale, converting the topology
// to the compressed layout when Packed is set.
func (o Options) load(name string) (*gen.Dataset, error) {
	d, err := o.loadCSR(name)
	if err == nil && o.Packed {
		d = gen.PackDataset(d)
	}
	return d, err
}

// loadCSR fetches a preset at the configured scale with its topology left
// as concrete CSR storage regardless of Packed — for experiments that
// mutate the graph (the drift experiment builds a Delta over the base).
func (o Options) loadCSR(name string) (*gen.Dataset, error) {
	return gen.LoadPresetScaled(name, o.Scale)
}

// apply adapts a system config to the experiment scale.
func (o Options) apply(cfg core.Config) core.Config {
	cfg.GPUMemory = int64(float64(device.DefaultGPUMemory) / float64(o.Scale))
	cfg.MemScale = float64(o.Scale)
	cfg.Epochs = o.Epochs
	cfg.Seed = o.Seed
	cfg.MeasureStore = o.Store
	cfg.Obs = o.Obs
	return cfg
}

// runCells evaluates n independent experiment cells, GOMAXPROCS at a
// time (par.Group). Each cell must write only its own pre-sized slot(s);
// rows are then assembled serially in cell order, so rendered tables are
// byte-identical at any GOMAXPROCS. On error, the error of the
// lowest-indexed failing cell is returned (also independent of
// scheduling).
func runCells(n int, fn func(i int) error) error {
	g := par.NewGroup()
	for i := 0; i < n; i++ {
		g.Go(func() error { return fn(i) })
	}
	return g.Wait()
}

// batchSize returns the scaled mini-batch size, keeping the number of
// mini-batches per epoch constant across scales (the paper's 8000-vertex
// batches over its training sets).
func (o Options) batchSize() int {
	b := workload.DefaultBatchSize / o.Scale
	if b < 4 {
		b = 4
	}
	return b
}

// spec builds a workload spec at experiment scale.
func (o Options) spec(kind workload.ModelKind) workload.Spec {
	w := workload.NewSpec(kind)
	w.BatchSize = o.batchSize()
	return w
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render formats the table as aligned plain text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
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
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	line(dashes(widths))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// RenderCSV formats the table as RFC-4180-ish CSV (header row first),
// quoting cells that contain commas or quotes.
func (t *Table) RenderCSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Func is an experiment entry point.
type Func func(Options) (*Table, error)

// Registry maps experiment IDs (table1 … figure17) to their functions, in
// paper order. Each Fn validates its Options first and returns the error.
func Registry() []struct {
	ID string
	Fn Func
} {
	entries := []struct {
		ID string
		Fn Func
	}{
		{"table1", Table1},
		{"table2", Table2},
		{"figure3", Figure3},
		{"figure4a", Figure4a},
		{"figure4b", Figure4b},
		{"figure5", Figure5},
		{"table3", Table3},
		{"table4", Table4},
		{"table5", Table5},
		{"figure10", Figure10},
		{"figure11a", Figure11a},
		{"figure11b", Figure11b},
		{"figure11c", Figure11c},
		{"figure12", Figure12},
		{"figure13", Figure13},
		{"figure14", Figure14},
		{"figure15", Figure15},
		{"table6", Table6},
		{"figure16", Figure16},
		{"figure17a", Figure17a},
		{"figure17b", Figure17b},
		// Ablations beyond the paper's figures (DESIGN.md "Key design
		// decisions").
		{"ablation-agl", AblationAGL},
		{"ablation-pipeline", AblationPipeline},
		{"ablation-subgraph", AblationSubgraph},
		{"ablation-partition", AblationPartition},
		{"ablation-contention", AblationContention},
		{"ablation-coupling", AblationCoupling},
		{"ablation-hostbw", AblationHostBandwidth},
		{"ablation-batchsize", AblationBatchSize},
		{"ablation-trainset", AblationTrainSet},
		{"resilience", Resilience},
		{"drift", Drift},
		{"serving", Serving},
	}
	for i, e := range entries {
		entries[i].Fn = func(o Options) (*Table, error) {
			if err := o.Validate(); err != nil {
				return nil, err
			}
			return e.Fn(o)
		}
	}
	return entries
}

// Lookup returns the experiment function for an ID.
func Lookup(id string) (Func, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Fn, true
		}
	}
	return nil, false
}

// IDs lists registered experiment IDs in paper order.
func IDs() []string {
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// Formatting helpers shared by experiments.

func secs(v float64) string { return fmt.Sprintf("%.3f", v) }

func pct(v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }

func megabytes(b int64) string { return fmt.Sprintf("%.1fMB", float64(b)/(1<<20)) }

// cellOrOOM renders a report's epoch time, or "OOM".
func cellOrOOM(rep *core.Report, render func(*core.Report) string) string {
	if rep.OOM {
		return "OOM"
	}
	return render(rep)
}
