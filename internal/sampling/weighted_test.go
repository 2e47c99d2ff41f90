package sampling

import (
	"sync"
	"testing"

	"gnnlab/internal/rng"
)

// TestWeightTablesBuiltExactlyOnce fans many concurrent clones of the same
// weighted sampler at one graph and asserts the per-graph draw tables are
// built exactly once — the Prepare/once contract the parallel measurement
// engine relies on.
func TestWeightTablesBuiltExactlyOnce(t *testing.T) {
	g := testGraph(11, 400, 8, 4)
	for _, method := range []WeightedDrawMethod{WeightedCDF, WeightedAlias} {
		w := NewWeightedKHopMethod([]int{5, 3}, method)
		const workers = 16
		var wg sync.WaitGroup
		wg.Add(workers)
		for i := 0; i < workers; i++ {
			go func(i int) {
				defer wg.Done()
				alg := ClonePooled(w)
				r := rng.New(uint64(i))
				for iter := 0; iter < 4; iter++ {
					s := alg.Sample(g, []int32{0, 1, 2, 3}, r)
					if err := s.Validate(); err != nil {
						t.Error(err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		if n := w.tables.builds.Load(); n != 1 {
			t.Errorf("method %v: %d table builds across concurrent clones, want 1", method, n)
		}
	}
}

// TestWeightedPrepareBuildsEagerly checks Prepare builds the tables before
// any Sample call, and that sampling afterwards does not rebuild.
func TestWeightedPrepareBuildsEagerly(t *testing.T) {
	g := testGraph(12, 200, 6, 3)
	for _, method := range []WeightedDrawMethod{WeightedCDF, WeightedAlias} {
		w := NewWeightedKHopMethod([]int{4}, method)
		Prepare(w, g)
		if n := w.tables.builds.Load(); n != 1 {
			t.Fatalf("method %v: builds after Prepare = %d, want 1", method, n)
		}
		clone := ClonePooled(w)
		_ = clone.Sample(g, []int32{0, 1}, rng.New(1))
		if n := w.tables.builds.Load(); n != 1 {
			t.Errorf("method %v: Sample after Prepare rebuilt tables (builds=%d)", method, n)
		}
	}
}

// TestPrepareNoOpForStatelessAlgorithms exercises the generic hook on
// algorithms without per-graph preprocessing.
func TestPrepareNoOpForStatelessAlgorithms(t *testing.T) {
	g := testGraph(13, 100, 5, 2)
	Prepare(NewKHop([]int{3}, FisherYates), g)
	Prepare(NewRandomWalk(2, 2, 2, 3), g)
	// ClusterGCN's Prepare partitions eagerly; Sample must reuse it.
	c := NewClusterGCN(4, 9)
	Prepare(c, g)
	s := c.Sample(g, []int32{0}, rng.New(1))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
