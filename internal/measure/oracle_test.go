package measure

import (
	"reflect"
	"testing"

	"gnnlab/internal/cache"
	"gnnlab/internal/sampling"
)

// The Optimal oracle's contract (§3 footnote 4): replaying a measured run
// with cache.CollectFootprint reproduces, vertex by vertex, how often the
// run extracted each feature row — the count of batches whose Input held
// the vertex. Both sides sample through sampling.ReplayEpochs, so this
// holds for every sampler family and at any GOMAXPROCS.
func TestOptimalFootprintMatchesMeasuredInputs(t *testing.T) {
	d := testDataset(t)
	batch := 64
	algs := []struct {
		name string
		mk   func() sampling.Algorithm
	}{
		{"khop", func() sampling.Algorithm { return sampling.ForGCN() }},
		{"random-walk", func() sampling.Algorithm { return sampling.ForPinSAGE() }},
		{"saint-node", func() sampling.Algorithm { return sampling.NewSAINTNode(4 * batch) }},
	}
	for _, a := range algs {
		spec := SpecFor(d, a.mk(), batch, 2, 42)
		for _, procs := range []int{1, 4} {
			setProcs(t, procs)
			m := Collect(d, spec, a.mk(), nil)
			want := make([]int64, d.NumVertices())
			for _, batches := range m.Epochs {
				for _, b := range batches {
					for _, v := range b.Input {
						want[v]++
					}
				}
			}
			fp := cache.CollectFootprint(d.Graph, a.mk(), d.TrainSet, batch, spec.Epochs, spec.Seed)
			if fp.TotalExtractions == 0 {
				t.Fatalf("%s: empty footprint", a.name)
			}
			if !reflect.DeepEqual(fp.Extractions, want) {
				t.Errorf("%s GOMAXPROCS %d: footprint extractions differ from the measured inputs", a.name, procs)
			}
		}
	}
}
