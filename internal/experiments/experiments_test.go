package experiments

import (
	"strconv"
	"strings"
	"testing"

	"gnnlab/internal/measure"
)

// testDatasets owns every dataset this package's tests load, whatever
// measurement store a test runs with: a render without a store, or with
// a fresh one, reuses the datasets earlier tests generated instead of
// regenerating them. Tables do not depend on which store holds a
// dataset.
var testDatasets = measure.NewStore()

// quickOpts shrinks the experiments enough to run in test time.
func quickOpts() Options {
	return Options{Scale: 16, Epochs: 2, NumGPUs: 8, datasets: testDatasets}
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"table1", "table2", "figure3", "figure4a", "figure4b", "figure5",
		"table3", "table4", "table5", "figure10", "figure11a", "figure11b", "figure11c",
		"figure12", "figure13", "figure14", "figure15", "table6", "figure16",
		"figure17a", "figure17b",
		"ablation-agl", "ablation-pipeline", "ablation-subgraph", "ablation-partition",
		"ablation-contention", "ablation-coupling", "ablation-hostbw",
		"ablation-batchsize", "ablation-trainset", "resilience", "drift",
		"serving"}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("registry[%d] = %s, want %s", i, ids[i], id)
		}
	}
	if _, ok := Lookup("table4"); !ok {
		t.Error("Lookup(table4) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted unknown id")
	}
}

// runExp runs an experiment at quick scale. TestExperimentGolden checks
// every table's structure.
func runExp(t *testing.T, id string) *Table {
	t.Helper()
	fn, ok := Lookup(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	tbl, err := fn(quickOpts())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return tbl
}

// cellFloat parses a numeric cell, stripping % and units.
func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSuffix(cell, "%"), "MB")
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tbl := runExp(t, "table1")
	if len(tbl.Rows) != 6 {
		t.Fatalf("table1 has %d rows, want 6", len(tbl.Rows))
	}
	// "w/ Both" must beat plain T_SOTA end to end.
	base := cellFloat(t, tbl.Rows[2][4])
	both := cellFloat(t, tbl.Rows[5][4])
	if both >= base {
		t.Errorf("T_SOTA w/ both optimizations %.3f not faster than base %.3f", both, base)
	}
}

func TestTable2SimilarityHigh(t *testing.T) {
	tbl := runExp(t, "table2")
	for _, row := range tbl.Rows {
		for _, cell := range row[1:] {
			v := cellFloat(t, cell)
			if v < 40 || v > 100 {
				t.Errorf("similarity %v%% outside the plausible band", v)
			}
		}
	}
}

func TestTable4GNNLabWins(t *testing.T) {
	tbl := runExp(t, "table4")
	// Header: Model Dataset PyG DGL T_SOTA GNNLab (alloc)
	for _, row := range tbl.Rows {
		if row[1] != "PA" || row[0] != "GCN" {
			continue
		}
		dgl := cellFloat(t, row[3])
		gl := cellFloat(t, row[5])
		if gl >= dgl {
			t.Errorf("GCN/PA: GNNLab %.3f not faster than DGL %.3f", gl, dgl)
		}
	}
}

// TestTable6OOMMatchesTable4 renders both tables on one GPU, where
// GNNLab's single-GPU rule makes GCN on UK OOM, and checks that each
// dataset's Table 6 column reads OOM in every row exactly where Table 4's
// GNNLab GCN cell does.
func TestTable6OOMMatchesTable4(t *testing.T) {
	o := Options{Scale: 16, Epochs: 2, NumGPUs: 1, Store: measure.NewStore(), datasets: testDatasets}
	t4, err := Table4(o)
	if err != nil {
		t.Fatal(err)
	}
	t6, err := Table6(o)
	if err != nil {
		t.Fatal(err)
	}
	// Table 4 header: Model Dataset PyG DGL T_SOTA GNNLab (alloc).
	oom := map[string]bool{}
	for _, row := range t4.Rows {
		if row[0] == "GCN" {
			oom[row[1]] = row[5] == "OOM"
		}
	}
	if !oom["UK"] {
		t.Fatal("table4 at 1 GPU: GNNLab GCN on UK is not OOM; the check below needs an OOM column")
	}
	for c, name := range t6.Header[1:] {
		want, ok := oom[name]
		if !ok {
			t.Fatalf("table6 column %s has no table4 GCN row", name)
		}
		for _, row := range t6.Rows {
			if got := row[c+1] == "OOM"; got != want {
				t.Errorf("table6 %s row %q = %q; table4 GNNLab GCN OOM = %v", name, row[0], row[c+1], want)
			}
		}
	}
}

func TestTable5GNNLabCacheBeatsTSOTA(t *testing.T) {
	tbl := runExp(t, "table5")
	var tsotaHit, gnnlabHit float64
	for _, row := range tbl.Rows {
		if row[0] != "GCN" || row[1] != "PA" {
			continue
		}
		switch row[2] {
		case "T_SOTA":
			tsotaHit = cellFloat(t, row[9])
		case "GNNLab":
			gnnlabHit = cellFloat(t, row[9])
		}
	}
	if gnnlabHit <= tsotaHit {
		t.Errorf("GNNLab hit rate %v%% not above T_SOTA %v%% on GCN/PA", gnnlabHit, tsotaHit)
	}
}

func TestFigure10PreSCNearOptimal(t *testing.T) {
	tbl := runExp(t, "figure10")
	// Header: Algorithm Dataset Random Degree PreSC#1 Optimal
	for _, row := range tbl.Rows {
		presc := cellFloat(t, row[4])
		opt := cellFloat(t, row[5])
		if opt > 0 && presc < 0.5*opt {
			t.Errorf("%s/%s: PreSC %v%% below half of optimal %v%%", row[0], row[1], presc, opt)
		}
		if presc > opt+1 {
			t.Errorf("%s/%s: PreSC %v%% above optimal %v%%", row[0], row[1], presc, opt)
		}
	}
}

func TestFigure11bPreSCFastRise(t *testing.T) {
	tbl := runExp(t, "figure11b")
	// At the largest swept ratio PreSC must be far above Degree on PA.
	last := tbl.Rows[len(tbl.Rows)-1]
	degree := cellFloat(t, last[2])
	presc := cellFloat(t, last[3])
	if presc < degree+10 {
		t.Errorf("PA sweep: PreSC %v%% not well above Degree %v%%", presc, degree)
	}
}

func TestFigure14MoreGPUsNotSlower(t *testing.T) {
	tbl := runExp(t, "figure14")
	// Within one dataset, GNNLab/1S times must be non-increasing in GPUs.
	prev := map[string]float64{}
	for _, row := range tbl.Rows {
		ds := row[0]
		cell := row[4] // GNNLab/1S
		if cell == "-" || cell == "OOM" {
			continue
		}
		v := cellFloat(t, cell)
		if p, ok := prev[ds]; ok && v > p*1.1 {
			t.Errorf("%s: GNNLab/1S slowed from %.3f to %.3f with more GPUs", ds, p, v)
		}
		prev[ds] = v
	}
}

func TestFigure17aSwitchingHelpsWhenStarved(t *testing.T) {
	tbl := runExp(t, "figure17a")
	// With a single trainer, switching must help (strictly faster).
	first := tbl.Rows[0]
	off := cellFloat(t, first[1])
	on := cellFloat(t, first[2])
	if on >= off {
		t.Errorf("1 trainer: switching %.3f not faster than %.3f", on, off)
	}
}

func TestFigure16Convergence(t *testing.T) {
	if testing.Short() {
		t.Skip("real training skipped in -short")
	}
	tbl := runExp(t, "figure16")
	if len(tbl.Rows) != 3 {
		t.Fatalf("figure16 rows %d, want 3", len(tbl.Rows))
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1 || o.NumGPUs != 8 || o.Epochs != 3 {
		t.Errorf("defaults %+v", o)
	}
	if Quick().Scale <= 1 {
		t.Error("Quick() should shrink")
	}
	if o.batchSize() != 80 {
		t.Errorf("batch size %d at scale 1", o.batchSize())
	}
}

// Without a Store, each call loads into a store of its own; with one,
// the Store also owns the datasets.
func TestDatasetsOwnedByStore(t *testing.T) {
	a, b := Options{}.withDefaults(), Options{}.withDefaults()
	if a.datasets == nil || a.datasets == b.datasets {
		t.Error("calls without a Store must each get a dataset store of their own")
	}
	if a.withDefaults().datasets != a.datasets {
		t.Error("withDefaults replaced a dataset store already set")
	}
	s := measure.NewStore()
	if o := (Options{Store: s}).withDefaults(); o.datasets != s {
		t.Error("the caller's Store does not own the datasets")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.Notes = append(tbl.Notes, "hello")
	out := tbl.Render()
	for _, want := range []string{"== x: T ==", "a", "bb", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderCSV(t *testing.T) {
	tbl := &Table{
		ID: "x", Title: "T",
		Header: []string{"a", "b"},
	}
	tbl.AddRow("1", "with,comma")
	tbl.AddRow("2", `with"quote`)
	got := tbl.RenderCSV()
	want := "a,b\n1,\"with,comma\"\n2,\"with\"\"quote\"\n"
	if got != want {
		t.Errorf("RenderCSV = %q, want %q", got, want)
	}
}

// A negative size is an error from every registered experiment, not a
// panic from inside one of its cells (a GPU of negative capacity, a
// slice of negative length).
func TestBadOptionsReturnError(t *testing.T) {
	bad := []struct {
		field string
		set   func(*Options)
	}{
		{"Scale", func(o *Options) { o.Scale = -2 }},
		{"NumGPUs", func(o *Options) { o.NumGPUs = -1 }},
		{"Epochs", func(o *Options) { o.Epochs = -1 }},
		{"Faults", func(o *Options) { o.Faults = -1 }},
		{"Drift", func(o *Options) { o.Drift = -1 }},
	}
	for _, b := range bad {
		o := quickOpts()
		b.set(&o)
		if err := o.Validate(); err == nil || !strings.Contains(err.Error(), b.field) {
			t.Errorf("%s: Validate() = %v, want an error naming the field", b.field, err)
		}
		for _, e := range Registry() {
			tbl, err := e.Fn(o)
			if err == nil || tbl != nil {
				t.Errorf("%s: %s returned (%v, %v), want only an error", b.field, e.ID, tbl, err)
			}
		}
	}
	if err := quickOpts().Validate(); err != nil {
		t.Errorf("quick options rejected: %v", err)
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
}
