package experiments

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gnnlab/internal/measure"
)

var update = flag.Bool("update", false, "rewrite testdata/<id>.csv from the current output")

// stableIDs each cover one path through the measurement engine and the
// store: table1 core.Run (six system variants), figure10 the
// analytic cache path (footprints, PreSC rankings), table2 per-epoch
// footprints, table6 preprocessing's PreSC ranking, and ablation-coupling
// cache.Rank. They render once more at GOMAXPROCS 1 and once more
// without a store; both renders must equal the golden.
var stableIDs = []string{"table1", "figure10", "table2", "table6", "ablation-coupling"}

// TestExperimentGolden renders every registered experiment with one
// shared measurement store, as gnnlab-bench does, and compares each table
// with its golden CSV, testdata/<id>.csv. A failure names the
// experiment, row and column; `go test ./internal/experiments -run
// TestExperimentGolden -update` re-records the files. The nostore arm
// renders stableIDs with no store: every cell re-measures, and the
// tables must not change.
func TestExperimentGolden(t *testing.T) {
	skipOffAMD64(t)
	store := measure.NewStore()
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) { checkGolden(t, id, Options{Store: store}, *update) })
	}
	for _, id := range stableIDs {
		t.Run("nostore/"+id, func(t *testing.T) { checkGolden(t, id, Options{}, false) })
	}
}

// TestRenderStableAcrossWorkers renders stableIDs at GOMAXPROCS 1, with
// a store of its own so every measurement runs serially, and compares
// each with the golden TestExperimentGolden rendered at the default
// GOMAXPROCS. On a machine with two or more cores the two renders ran at
// different widths.
func TestRenderStableAcrossWorkers(t *testing.T) {
	skipOffAMD64(t)
	setProcs(t, 1)
	store := measure.NewStore()
	for _, id := range stableIDs {
		t.Run(id, func(t *testing.T) { checkGolden(t, id, Options{Store: store}, false) })
	}
}

// setProcs runs the rest of the test at GOMAXPROCS procs; the value the
// test started with comes back at cleanup.
func setProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func skipOffAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens recorded on amd64; architectures that fuse x*y+z round differently")
	}
}

// checkGolden renders experiment id at the options of `gnnlab-bench
// -scale 16 -gpus 4 -epochs 2 -format csv`, with o's Store,
// checks the table's structure, and compares it with testdata/<id>.csv
// (whose body is that command's table), first rewriting the file when
// write is set.
func checkGolden(t *testing.T, id string, o Options, write bool) {
	t.Helper()
	fn, ok := Lookup(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	o.Scale, o.NumGPUs, o.Epochs = 16, 4, 2
	tbl, err := fn(o)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != id {
		t.Errorf("%s: table ID %q", id, tbl.ID)
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s: no rows", id)
	}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Header) && len(row) < 2 {
			t.Errorf("%s: row %d has %d cells for %d headers", id, i, len(row), len(tbl.Header))
		}
	}
	got := tbl.RenderCSV()
	path := filepath.Join("testdata", id+".csv")
	if write {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	diffCSV(t, id, got, string(want))
}

// diffCSV reports every cell where got and want differ, naming the row
// by its number and first cell and the column by its header.
func diffCSV(t *testing.T, id, got, want string) {
	t.Helper()
	parse := func(name, s string) [][]string {
		r := csv.NewReader(strings.NewReader(s))
		r.FieldsPerRecord = -1
		rows, err := r.ReadAll()
		if err != nil {
			t.Fatalf("%s: parse %s CSV: %v", id, name, err)
		}
		return rows
	}
	g, w := parse("rendered", got), parse("golden", want)
	if len(g) == 0 || len(w) == 0 {
		t.Fatalf("%s: empty table (rendered %d lines, golden %d)", id, len(g), len(w))
	}
	header := w[0]
	if len(g) != len(w) {
		t.Errorf("%s: %d rows rendered, golden has %d", id, len(g)-1, len(w)-1)
	}
	for i := 0; i < min(len(g), len(w)); i++ {
		row := "header"
		if i > 0 {
			row = fmt.Sprintf("row %d (%s)", i, w[i][0])
		}
		for j := 0; j < max(len(g[i]), len(w[i])); j++ {
			col := fmt.Sprintf("column %d", j+1)
			if j < len(header) {
				col = "column " + header[j]
			}
			switch {
			case j >= len(g[i]):
				t.Errorf("%s %s, %s: missing, want %q", id, row, col, w[i][j])
			case j >= len(w[i]):
				t.Errorf("%s %s, %s: got %q, golden has no such cell", id, row, col, g[i][j])
			case g[i][j] != w[i][j]:
				t.Errorf("%s %s, %s: got %q, want %q", id, row, col, g[i][j], w[i][j])
			}
		}
	}
}
