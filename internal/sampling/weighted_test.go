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
	w := NewWeightedKHop([]int{5, 3})
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
				if err := validate(s, g); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if n := w.tables.builds.Load(); n != 1 {
		t.Errorf("%d table builds across concurrent clones, want 1", n)
	}
}

// TestWeightedPrepareBuildsEagerly checks Prepare builds the tables before
// any Sample call, and that sampling afterwards does not rebuild.
func TestWeightedPrepareBuildsEagerly(t *testing.T) {
	g := testGraph(12, 200, 6, 3)
	w := NewWeightedKHop([]int{4})
	Prepare(w, g)
	if n := w.tables.builds.Load(); n != 1 {
		t.Fatalf("builds after Prepare = %d, want 1", n)
	}
	clone := ClonePooled(w)
	_ = clone.Sample(g, []int32{0, 1}, rng.New(1))
	if n := w.tables.builds.Load(); n != 1 {
		t.Errorf("Sample after Prepare rebuilt tables (builds=%d)", n)
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
	if err := validate(s, g); err != nil {
		t.Fatal(err)
	}
}
