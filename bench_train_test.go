package gnnlab

// BenchmarkMinibatch measures the end-to-end training mini-batch —
// Sample, Extract (gather), forward+backward, optimizer step — with
// fresh allocations versus the pooled scratch path (sampling arena +
// feature.GatherInto + nn.Workspace), with and without a feature cache.
// Both variants compute bit-identical results (internal/train's
// TestTrainPooledMatchesFresh); only cost changes. Results land in
// BENCH_train.json alongside BENCH_sample.json's Sample-stage numbers.

import (
	"encoding/json"
	"os"
	"runtime"
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

type minibatchBenchRow struct {
	Cache          string  `json:"cache"`
	FreshNsOp      float64 `json:"fresh_ns_op"`
	PooledNsOp     float64 `json:"pooled_ns_op"`
	FreshBytesOp   float64 `json:"fresh_bytes_op"`
	PooledBytesOp  float64 `json:"pooled_bytes_op"`
	FreshAllocsOp  float64 `json:"fresh_allocs_op"`
	PooledAllocsOp float64 `json:"pooled_allocs_op"`
	SpeedupNs      float64 `json:"speedup_ns"`
	BytesRatio     float64 `json:"bytes_ratio"`
}

func BenchmarkMinibatch(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping minibatch benchmark in -short mode")
	}
	cfg, err := gen.PresetConfig(gen.PresetConv)
	if err != nil {
		b.Fatal(err)
	}
	cfg.MaterializeFeatures = true
	d, err := gen.Load(cfg)
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
	rows := make([]minibatchBenchRow, 0, len(caches))
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

		// Fresh: every stage allocates its outputs, the pre-pooling path.
		freshS, freshB, freshO := func() (float64, float64, float64) {
			model, opt := newModel()
			a := sampling.CloneAlgorithm(alg)
			r := rng.New(29)
			i := 0
			run := func() {
				s := a.Sample(d.Graph, batches[i%len(batches)], r)
				i++
				g, err := nn.NewCompact(s)
				if err != nil {
					b.Fatal(err)
				}
				feats, _, _ := store.Gather(s)
				labels := nn.SeedLabels(s, d.Labels)
				if _, _, err := model.LossAndGrad(g, feats, labels); err != nil {
					b.Fatal(err)
				}
				opt.Step()
			}
			for w := 0; w < 10; w++ {
				run()
			}
			return measureCalls(calls, run)
		}()

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

		row := minibatchBenchRow{
			Cache:          cc.name,
			FreshNsOp:      freshS * 1e9,
			PooledNsOp:     pooledS * 1e9,
			FreshBytesOp:   freshB,
			PooledBytesOp:  pooledB,
			FreshAllocsOp:  freshO,
			PooledAllocsOp: pooledO,
			SpeedupNs:      freshS / pooledS,
		}
		// Clamp sub-byte pooled averages (a stray one-time allocation
		// amortized over b.N) so the ratio does not swing with the
		// iteration count; see the same rule in bench_sample_test.go.
		if pooledB >= 1 {
			row.BytesRatio = freshB / pooledB
		} else {
			row.BytesRatio = freshB
		}
		rows = append(rows, row)
		b.ReportMetric(row.SpeedupNs, cc.name+"-speedup")
	}

	out, err := json.MarshalIndent(map[string]any{
		"benchmark":      "BenchmarkMinibatch",
		"dataset":        d.Name,
		"graph_vertices": d.NumVertices(),
		"feature_dim":    d.FeatureDim,
		"model":          spec.Kind.String(),
		"hidden_dim":     spec.HiddenDim,
		"batch_size":     spec.BatchSize,
		"calls":          calls,
		"cores":          runtime.GOMAXPROCS(0),
		"configs":        rows,
	}, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_train.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
