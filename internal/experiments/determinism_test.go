package experiments

import (
	"runtime"
	"testing"
)

// Rendered tables are byte-identical at any Workers setting: cells write
// only pre-sized slots and the per-cell measurement engine is itself
// deterministic.
func assertRenderStable(t *testing.T, id string) {
	t.Helper()
	fn, ok := Lookup(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	render := func(workers int) string {
		o := Quick()
		o.Workers = workers
		tbl, err := fn(o)
		if err != nil {
			t.Fatalf("%s at Workers=%d: %v", id, workers, err)
		}
		return tbl.Render()
	}
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	base := render(counts[0])
	for _, w := range counts[1:] {
		if got := render(w); got != base {
			t.Errorf("%s renders differently at Workers=1 vs %d:\n--- Workers=1 ---\n%s\n--- Workers=%d ---\n%s",
				id, w, base, w, got)
		}
	}
}

// Each ID covers one path through the worker pool: table1 core.Run (six
// system variants), figure10 the analytic cache path (footprints, PreSC
// rankings), table2 per-epoch footprints, table6 preprocessing's PreSC
// ranking, and ablation-coupling cache.Rank with the Options' pool.
func TestRenderStableAcrossWorkers(t *testing.T) {
	for _, id := range []string{"table1", "figure10", "table2", "table6", "ablation-coupling"} {
		t.Run(id, func(t *testing.T) { assertRenderStable(t, id) })
	}
}
