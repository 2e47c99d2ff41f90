package experiments

import (
	"strconv"
	"testing"
)

func TestResilienceShape(t *testing.T) {
	o := quickOpts()
	o.Faults = 4
	tbl, err := Resilience(o)
	if err != nil {
		t.Fatal(err)
	}
	// -faults 4 sweeps {0, 1, 2, 4}.
	if len(tbl.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d: %v", len(tbl.Rows), tbl.Rows)
	}
	base, err := strconv.ParseFloat(tbl.Rows[0][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows[1:] {
		et, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		// Faults only add delay: no faulted run beats the baseline.
		if et < base*0.999 {
			t.Errorf("row %v: epoch time %v beats fault-free baseline %v", row, et, base)
		}
	}
	if tbl.Rows[0][3] != "0" || tbl.Rows[0][4] != "0" {
		t.Errorf("baseline row reports fault activity: %v", tbl.Rows[0])
	}
}

func TestResilienceDeterministic(t *testing.T) {
	o := quickOpts()
	o.Faults = 2
	a, err := Resilience(o)
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 1)
	b, err := Resilience(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatalf("resilience table differs between the default GOMAXPROCS and 1:\n%s\nvs\n%s", a.Render(), b.Render())
	}
}
