package gnnlab

// BenchmarkMeasureStoreReplay times the measurement store end to end: a
// sweep of system configurations sharing one sampling content key (the
// shape of the paper's policy/ratio/design sweeps), run fresh — every
// cell re-measures — against run through a shared store — measure once,
// replay many. Reports are bit-identical between the two (asserted here,
// and in internal/core/replay_test.go); only wall-clock changes. The
// reported speedup is whatever the machine produced, including store
// overheads; the hit/miss counts are pinned by internal/core's
// TestMeasureStoreReuse.

import (
	"reflect"
	"testing"
	"time"

	"gnnlab/internal/cache"
	"gnnlab/internal/core"
	"gnnlab/internal/device"
	"gnnlab/internal/gen"
	"gnnlab/internal/measure"
	"gnnlab/internal/workload"
)

// replayBenchConfigs builds a sweep whose cells all share one measurement:
// same dataset, sampler, batch size, seed and epochs, varying only what
// the Cost layer prices (design, cache policy, cache ratio, GPU count).
func replayBenchConfigs() []core.Config {
	w := workload.NewSpec(workload.GCN)
	w.BatchSize = workload.DefaultBatchSize / measureBenchScale
	scale := func(cfg core.Config) core.Config {
		cfg.GPUMemory = device.DefaultGPUMemory / measureBenchScale
		cfg.MemScale = measureBenchScale
		cfg.Epochs = 2
		return cfg
	}
	base := scale(core.GNNLab(w, 8))
	degree := base
	degree.Name = "GNNLab/degree"
	degree.CachePolicy = cache.PolicyDegree
	random := base
	random.Name = "GNNLab/random"
	random.CachePolicy = cache.PolicyRandom
	ratio := base
	ratio.Name = "GNNLab/ratio10"
	ratio.CacheRatioOverride = 0.10
	fourGPU := scale(core.GNNLab(w, 4))
	fourGPU.Name = "GNNLab/4gpu"
	return []core.Config{
		base, degree, random, ratio, fourGPU,
		scale(core.TSOTA(w, 8)),
		scale(core.AGL(w, 8)),
	}
}

func runSweep(b *testing.B, d *gen.Dataset, configs []core.Config, store *measure.Store) ([]*core.Report, float64) {
	b.Helper()
	reps := make([]*core.Report, len(configs))
	start := time.Now()
	for i, cfg := range configs {
		cfg.MeasureStore = store
		rep, err := core.Run(d, cfg)
		if err != nil {
			b.Fatalf("%s: %v", cfg.Name, err)
		}
		reps[i] = rep
	}
	return reps, time.Since(start).Seconds()
}

func BenchmarkMeasureStoreReplay(b *testing.B) {
	d, err := gen.LoadPresetScaled(gen.PresetPA, measureBenchScale)
	if err != nil {
		b.Fatal(err)
	}
	configs := replayBenchConfigs()
	runSweep(b, d, configs, nil) // warm the dataset and sampler tables

	var fresh, shared float64
	var hits, misses int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		freshReps, ft := runSweep(b, d, configs, nil)
		store := measure.NewStore()
		storeReps, st := runSweep(b, d, configs, store)
		fresh += ft
		shared += st
		hits, misses = store.Stats()
		// Honesty check: the store must change wall-clock only.
		for j := range configs {
			if !reflect.DeepEqual(freshReps[j], storeReps[j]) {
				b.Fatalf("%s: Report differs with a store", configs[j].Name)
			}
		}
	}
	b.StopTimer()
	fresh /= float64(b.N)
	shared /= float64(b.N)

	speedup := fresh / shared
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(fresh, "fresh-s")
	b.ReportMetric(shared, "store-s")
	b.ReportMetric(float64(hits), "store-hits")
	b.ReportMetric(float64(misses), "store-misses")
}
