package gnnlab

// BenchmarkMeasureParallel times the measurement engine end to end —
// core.Run's sampling+extract fan-out plus the PreSC pre-sampling replay —
// at GOMAXPROCS 1 against the default GOMAXPROCS, and reports the observed
// speedup. Reports are bit-identical between the two
// (see internal/core/determinism_test.go); only wall-clock changes. On a
// single-core machine the speedup is ~1x by construction.

import (
	"runtime"
	"testing"
	"time"

	"gnnlab/internal/core"
	"gnnlab/internal/device"
	"gnnlab/internal/gen"
	"gnnlab/internal/workload"
)

const measureBenchScale = 8 // the Quick() experiment scale

func measureBenchSetup(b *testing.B) (*gen.Dataset, core.Config) {
	b.Helper()
	d, err := LoadDatasetScaled(DatasetPA, measureBenchScale)
	if err != nil {
		b.Fatal(err)
	}
	w := workload.NewSpec(workload.GCN)
	w.BatchSize = workload.DefaultBatchSize / measureBenchScale
	cfg := core.GNNLab(w, 8)
	cfg.GPUMemory = device.DefaultGPUMemory / measureBenchScale
	cfg.MemScale = measureBenchScale
	cfg.Epochs = 2
	return d, cfg
}

// runMeasure times one core.Run at GOMAXPROCS procs.
func runMeasure(b *testing.B, d *gen.Dataset, cfg core.Config, procs int) float64 {
	b.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	start := time.Now()
	rep, err := core.Run(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if rep.OOM {
		b.Fatalf("unexpected OOM: %s", rep.OOMReason)
	}
	return time.Since(start).Seconds()
}

func BenchmarkMeasureParallel(b *testing.B) {
	d, cfg := measureBenchSetup(b)
	procs := runtime.GOMAXPROCS(0)
	runMeasure(b, d, cfg, 1) // warm the dataset and sampler tables

	var serial, parallel float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial += runMeasure(b, d, cfg, 1)
		parallel += runMeasure(b, d, cfg, procs)
	}
	b.StopTimer()
	serial /= float64(b.N)
	parallel /= float64(b.N)

	speedup := serial / parallel
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(serial, "serial-s")
	b.ReportMetric(parallel, "parallel-s")
}
