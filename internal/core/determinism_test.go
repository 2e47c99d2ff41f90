package core

import (
	"reflect"
	"runtime"
	"testing"

	"gnnlab/internal/cache"
	"gnnlab/internal/device"
	"gnnlab/internal/gen"
	"gnnlab/internal/workload"
)

// The measurement engine's contract: a Report is a pure function of
// (dataset, config, seed) — GOMAXPROCS only changes wall-clock time.
// Every algorithm family the workloads use must hold to it, since each
// keys its RNG consumption off the per-cell (epoch, batch) stream.

// procsCounts is the serial width and two wider ones, whatever this
// machine's core count.
func procsCounts() []int {
	return []int{1, 2, max(4, runtime.NumCPU())}
}

// setProcs runs the rest of the test at GOMAXPROCS procs; the value the
// test started with comes back at cleanup.
func setProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func reportAt(t *testing.T, d *gen.Dataset, cfg Config, mem int64, memScale float64, procs int) *Report {
	t.Helper()
	setProcs(t, procs)
	return runScaled(t, d, cfg, mem, memScale)
}

func assertReportsIdentical(t *testing.T, d *gen.Dataset, cfg Config, mem int64, memScale float64) {
	t.Helper()
	base := reportAt(t, d, cfg, mem, memScale, 1)
	for _, p := range procsCounts()[1:] {
		got := reportAt(t, d, cfg, mem, memScale, p)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("%s: report differs between GOMAXPROCS 1 and %d:\n  1: %v\n  %d: %v",
				cfg.Name, p, base, p, got)
		}
	}
}

func TestRunDeterministicAcrossWorkersKHopFisherYates(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	assertReportsIdentical(t, d, GNNLab(w, 4), mem, ms)
}

func TestRunDeterministicAcrossWorkersKHopReservoir(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	cfg := DGL(w, 4)
	if cfg.Sampler != device.SamplerGPUReservoir {
		t.Fatal("DGL config no longer uses the reservoir sampler")
	}
	assertReportsIdentical(t, d, cfg, mem, ms)
}

func TestRunDeterministicAcrossWorkersWeightedKHop(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetTW, 16)
	w := scaledSpec(workload.GCN, 16)
	w.Weighted = true
	assertReportsIdentical(t, d, GNNLab(w, 4), mem, ms)
}

func TestRunDeterministicAcrossWorkersRandomWalk(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.PinSAGE, 16)
	assertReportsIdentical(t, d, GNNLab(w, 4), mem, ms)
}

// The Optimal policy path exercises CollectFootprint inside Run.
func TestRunDeterministicAcrossWorkersOptimalPolicy(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	cfg := GNNLab(w, 4)
	cfg.CachePolicy = cache.PolicyOptimal
	assertReportsIdentical(t, d, cfg, mem, ms)
}
