package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestServingShape(t *testing.T) {
	tbl, err := Serving(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// 4 GPUs → splits 1S/3T, 2S/2T, 3S/1T, five rows each
	// (50%/80%/95%/max/80%+faults) when the split sustains any load.
	if len(tbl.Rows) != 15 {
		t.Fatalf("want 15 rows, got %d:\n%s", len(tbl.Rows), tbl.Render())
	}
	splits := map[string]int{}
	for _, row := range tbl.Rows {
		splits[row[0]]++
		qps, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		if qps <= 0 {
			t.Errorf("row %v: non-positive QPS", row)
		}
		if !strings.HasSuffix(row[3], "ms") || !strings.HasSuffix(row[4], "ms") {
			t.Errorf("row %v: latency columns not in ms", row)
		}
	}
	for _, s := range []string{"1S/3T", "2S/2T", "3S/1T"} {
		if splits[s] != 5 {
			t.Errorf("split %s has %d rows, want 5:\n%s", s, splits[s], tbl.Render())
		}
	}
	// Within a split, p99 at 50% load does not exceed p99 at max load.
	p99 := func(row []string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[4], "ms"), 64)
		if err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		return v
	}
	for i := 0; i+3 < len(tbl.Rows); i += 5 {
		if lo, hi := p99(tbl.Rows[i]), p99(tbl.Rows[i+3]); lo > hi*1.001 {
			t.Errorf("split %s: p99 at 50%% load (%v) exceeds p99 at max (%v)", tbl.Rows[i][0], lo, hi)
		}
	}
}

// TestServingRenderStableAcrossWorkers renders the serving table on one
// worker and compares it with the golden the default pool rendered.
func TestServingRenderStableAcrossWorkers(t *testing.T) {
	skipOffAMD64(t)
	checkGolden(t, "serving", Options{Workers: 1}, false)
}
