package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// parsePct converts a rendered "42%" cell back to a float in [0,1].
func parsePct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q is not a percentage: %v", cell, err)
	}
	return v / 100
}

// TestDriftDegreeDegradesFasterThanPreSC pins the experiment's claim — the
// continuous form of §3/Fig 5(b): under graph drift, degree-based caching
// degrades faster than PreSC hotness even when degree is re-ranked every
// round, while O(|Δ|)-maintained PreSC retains the most hit rate.
func TestDriftDegreeDegradesFasterThanPreSC(t *testing.T) {
	o := Quick()
	o.Drift = 3
	o.datasets = testDatasets
	tbl, err := Drift(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != o.Drift+1 {
		t.Fatalf("got %d rows, want %d (round 0 + %d drift rounds)", len(tbl.Rows), o.Drift+1, o.Drift)
	}
	first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	if d := last[1]; d == "0" {
		t.Fatal("final round reports an empty delta")
	}
	col := func(row []string, i int) float64 { return parsePct(t, row[i]) }
	const iDegStale, iDegRe, iPreStale, iPreInc = 2, 3, 4, 5

	// Round 0 is measured before any drift: stale and re-ranked columns of
	// the same policy must agree exactly.
	if first[iDegStale] != first[iDegRe] || first[iPreStale] != first[iPreInc] {
		t.Errorf("round-0 cadence columns differ: %v", first)
	}

	// Incrementally-maintained PreSC must end clearly ahead of every other
	// policy/cadence combination.
	preInc := col(last, iPreInc)
	for _, other := range []int{iDegStale, iDegRe, iPreStale} {
		if preInc <= col(last, other) {
			t.Errorf("final PreSC incr %.2f not ahead of column %d (%.2f); table:\n%s",
				preInc, other, col(last, other), tbl.Render())
		}
	}

	// Degree must lose more hit rate over the run than maintained PreSC —
	// re-ranking degree every round does not save it (spam-hub
	// decorrelation), which is the §3 prediction.
	degDrop := col(first, iDegRe) - col(last, iDegRe)
	preDrop := col(first, iPreInc) - preInc
	if degDrop <= preDrop {
		t.Errorf("degree re-rank dropped %.2f, PreSC incr dropped %.2f; want degree to degrade faster; table:\n%s",
			degDrop, preDrop, tbl.Render())
	}
}
