package experiments

import (
	"testing"

	"gnnlab/internal/measure"
)

// A shared measurement store must change only wall-clock, never output:
// figure13 (4 workloads × 3 datasets × 3 cache policies, all through
// core.Run) renders byte-identically with and without one, and the store
// actually coalesces cells that share sampling content.
func TestFigure13StoreReuseBitIdentical(t *testing.T) {
	fn, ok := Lookup("figure13")
	if !ok {
		t.Fatal("figure13 not registered")
	}
	render := func(store *measure.Store) string {
		o := Quick() // cells run concurrently: exercises the single-flight path
		o.Store = store
		o.datasets = testDatasets
		tbl, err := fn(o)
		if err != nil {
			t.Fatal(err)
		}
		return tbl.Render()
	}

	bare := render(nil)
	store := measure.NewStore()
	shared := render(store)
	if bare != shared {
		t.Errorf("figure13 renders differently with a store:\n--- bare ---\n%s\n--- store ---\n%s", bare, shared)
	}

	hits, misses := store.Stats()
	if hits == 0 {
		t.Error("store recorded no hits: policy sweeps should share measurements")
	}
	if misses == 0 {
		t.Error("store recorded no misses")
	}
	// Three policies per (workload, dataset) share one measurement, so at
	// minimum two thirds of the measurement lookups must hit.
	if hits < misses {
		t.Errorf("store hits (%d) < misses (%d): expected policy sweeps to dominate", hits, misses)
	}
}
