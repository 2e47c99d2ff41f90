package gnnlab

// BenchmarkMinibatch measures the end-to-end training mini-batch —
// Sample, Extract (gather), forward+backward, optimizer step — on the
// arena path (sampling arena + feature.GatherInto + nn.Workspace), with
// and without a feature cache. Its zero-allocation steady state is pinned
// by internal/train's TestMinibatchSteadyStateZeroAllocs.

import (
	"testing"

	"gnnlab/internal/cache"
	"gnnlab/internal/feature"
	"gnnlab/internal/gen"
	"gnnlab/internal/nn"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/tensor"
	"gnnlab/internal/workload"
)

func BenchmarkMinibatch(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping minibatch benchmark in -short mode")
	}
	cfg, err := gen.PresetConfig(gen.PresetConv)
	if err != nil {
		b.Fatal(err)
	}
	cfg.MaterializeFeatures = true
	d, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.Spec{Kind: workload.GraphSAGE, HiddenDim: 32, BatchSize: 64}
	alg := spec.NewSampler()
	sampling.Prepare(alg, d.Graph)

	// A rotating pool of seed batches so successive mini-batches vary in
	// shape, as they do in a real epoch.
	const numBatches = 16
	seedR := rng.New(5)
	batches := sampling.Batches(d.TrainSet, spec.BatchSize, seedR)
	if len(batches) > numBatches {
		batches = batches[:numBatches]
	}

	const calls = 200
	caches := []struct {
		name  string
		ratio float64
	}{
		{"none", 0},
		{"degree-10pct", 0.10},
	}
	for _, cc := range caches {
		store, err := feature.NewStore(d.Features, d.FeatureDim)
		if err != nil {
			b.Fatal(err)
		}
		if cc.ratio > 0 {
			slots := int(cc.ratio * float64(d.NumVertices()))
			ranking := cache.DegreeHotness(d.Graph).RankTop(slots)
			table, err := cache.Load(ranking, slots, d.NumVertices(), int64(d.FeatureDim)*4)
			if err != nil {
				b.Fatal(err)
			}
			if err := store.EnableCache(table); err != nil {
				b.Fatal(err)
			}
		}

		newModel := func() (*nn.Model, *tensor.Adam) {
			m := nn.NewModel(spec.Kind, spec.NumLayers(), d.FeatureDim, spec.HiddenDim, d.NumClasses, 11)
			return m, tensor.NewAdam(0.01, m.Params())
		}

		// Pooled: sampling arena, reused gather matrix and Compact, and
		// the nn workspace carry every buffer across mini-batches.
		pooledS, pooledB, pooledO := func() (float64, float64, float64) {
			model, opt := newModel()
			a := sampling.ClonePooled(alg)
			ws := nn.NewWorkspace()
			var cmp nn.Compact
			var feats tensor.Matrix
			var labels []int32
			r := rng.New(29)
			i := 0
			run := func() {
				s := a.Sample(d.Graph, batches[i%len(batches)], r)
				i++
				if err := nn.NewCompactInto(&cmp, s); err != nil {
					b.Fatal(err)
				}
				store.GatherInto(&feats, s)
				labels = nn.SeedLabelsInto(labels, s, d.Labels)
				if _, _, err := model.LossAndGradWS(ws, &cmp, &feats, labels); err != nil {
					b.Fatal(err)
				}
				opt.Step()
			}
			for w := 0; w < 10; w++ {
				run()
			}
			return measureCalls(calls, run)
		}()

		b.ReportMetric(pooledS*1e9, cc.name+"-pooled-ns/op")
		b.ReportMetric(pooledB, cc.name+"-pooled-B/op")
		b.ReportMetric(pooledO, cc.name+"-pooled-allocs/op")
	}
}
