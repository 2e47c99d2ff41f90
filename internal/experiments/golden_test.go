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
)

var update = flag.Bool("update", false, "rewrite testdata/<id>.csv from the current output")

// goldenIDs lists the experiments whose tables are pinned cell by cell in
// testdata/<id>.csv. Pinning another experiment is one more ID here and
// one `go test ./internal/experiments -run TestExperimentGolden -update`.
var goldenIDs = []string{"serving"}

// TestExperimentGolden renders each pinned experiment and compares it
// with its golden CSV. A failure names the experiment, row and column.
func TestExperimentGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens recorded on amd64; architectures that fuse x*y+z round differently")
	}
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			fn, ok := Lookup(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			// The options of `gnnlab-bench -scale 16 -gpus 4 -epochs 2
			// -format csv`: a golden file is that command's table body.
			tbl, err := fn(Options{Scale: 16, NumGPUs: 4, Epochs: 2})
			if err != nil {
				t.Fatal(err)
			}
			got := tbl.RenderCSV()
			path := filepath.Join("testdata", id+".csv")
			if *update {
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
		})
	}
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
