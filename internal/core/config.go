// Package system assembles the substrates into complete sample-based GNN
// training systems and runs simulated epochs over them. Four designs are
// provided, mirroring §7.1 Table 3 (bottom):
//
//   - GNNLab: the paper's factored space-sharing design — dedicated
//     Sampler and Trainer GPUs bridged by an asynchronous global queue,
//     flexible scheduling, optional dynamic switching, PreSC caching.
//   - Time sharing: every GPU runs Sample→Extract→Train sequentially.
//     With GPU sampling and no cache this is the DGL baseline; with a
//     degree cache and the Fisher–Yates sampler it is T_SOTA.
//   - CPU sampling: Sample runs on host CPU workers, no cache (PyG).
//   - Batch mode: per-epoch role flip on all GPUs (AGL, discussed and
//     dismissed in §3).
//
// An epoch run performs the *real* work — sampling the real synthetic
// graph, probing the real cache table — and feeds the measured per-batch
// work through the device cost model into the event engine, producing the
// stage breakdowns and end-to-end times the paper's tables report.
package core

import (
	"fmt"

	"gnnlab/internal/cache"
	"gnnlab/internal/device"
	"gnnlab/internal/fault"
	"gnnlab/internal/measure"
	"gnnlab/internal/obs"
	"gnnlab/internal/workload"
)

// Config fully describes a system under test.
type Config struct {
	Name   string
	Design DesignKind

	NumGPUs   int
	GPUMemory int64
	// CPUSamplerWorkers is the host sampling pool size (CPU designs).
	CPUSamplerWorkers int
	Cost              device.CostModel

	Workload workload.Spec

	// Sampler selects the GPU sampling implementation cost profile.
	Sampler device.SamplerKind
	// SampleWSMultiplier scales the sampling workspace (DGL's reservoir
	// sampler and Python-side buffering need about twice the memory of
	// the from-scratch sampler, which is what tips DGL into OOM on UK).
	SampleWSMultiplier float64

	// CacheEnabled turns the GPU feature cache on.
	CacheEnabled bool
	CachePolicy  cache.PolicyKind
	// PreSCK is K for PreSC#K.
	PreSCK int
	// CacheRatioOverride, when > 0, forces the cache ratio instead of
	// deriving it from available GPU memory (used by the cache sweeps).
	// To sweep a zero cache, set CacheEnabled = false.
	CacheRatioOverride float64

	// Sync couples trainers with per-iteration gradient barriers.
	Sync bool
	// Pipelined overlaps Extract and Train inside a trainer (§5.2).
	Pipelined bool
	// DynamicSwitching enables standby Trainers on Sampler GPUs (§5.3).
	DynamicSwitching bool
	// PartitionedSampling lets Samplers handle graphs larger than GPU
	// memory by splitting the topology into partitions and cycling them
	// through GPU memory during each epoch — the future-work extension
	// sketched in §5.2. Costs one partition reload per hop per epoch.
	PartitionedSampling bool
	// ForceSamplers overrides flexible scheduling's N_s when > 0.
	ForceSamplers int

	// Trace records the first measured epoch's per-task execution
	// timeline in Report.Timeline.
	Trace bool
	// TrainerSlowdown scales each Trainer GPU's compute (index-aligned):
	// factors > 1 slow a GPU down (the §5.3 multi-tenant scenario where
	// co-located workloads steal cycles), factors in (0, 1) speed it up,
	// and 0 or 1 leave it untouched. Negative or NaN factors panic.
	TrainerSlowdown []float64

	// Faults, when non-nil and non-empty, is the deterministic fault
	// plan injected into the run: trainer crashes requeue in-flight
	// tasks (and, for the GNNLab design, trigger reallocation over the
	// surviving GPUs after a permanent loss), slowdown / PCIe / stall
	// windows stretch the simulated epoch, and alloc-fail events veto
	// memory planning. An empty plan leaves the Report bit-identical to
	// a run without one.
	Faults *fault.Plan

	// Epochs to measure (averaged). Defaults to 3.
	Epochs int
	Seed   uint64

	// MeasureStore, when non-nil, memoizes measurements and cache
	// rankings by content key: runs whose sampling work is identical
	// (same dataset, effective sampler, batch size, seed, epochs)
	// measure once and replay many times. Reports are bit-identical
	// with or without a store.
	MeasureStore *measure.Store

	// Obs, when non-nil, records cross-layer observability for the run:
	// wall-clock spans from the Measure and Cost layers, counters and
	// histograms in its metrics registry, and (when Trace is also set)
	// the simulated timeline as Perfetto trace events. Reports are
	// bit-identical with or without a recorder — spans observe, never
	// perturb, and a nil recorder costs nothing on the hot paths.
	Obs *obs.Recorder

	// MemScale divides the calibrated fixed memory footprints (runtime
	// reserve, sampling and training workspaces). The footprints are
	// calibrated for the 1/100-scale presets; tests and quick benches
	// that shrink datasets by a further factor f should set MemScale = f
	// together with GPUMemory / f so capacity ratios stay paper-shaped.
	// Defaults to 1.
	MemScale float64
}

// withDefaults fills unset fields with paper defaults.
func (c Config) withDefaults() Config {
	if c.GPUMemory == 0 {
		c.GPUMemory = device.DefaultGPUMemory
	}
	if c.Cost == (device.CostModel{}) {
		c.Cost = device.DefaultCostModel()
	}
	if c.CPUSamplerWorkers == 0 {
		c.CPUSamplerWorkers = 6
	}
	if c.SampleWSMultiplier == 0 {
		c.SampleWSMultiplier = 1
	}
	if c.Epochs == 0 {
		c.Epochs = 3
	}
	if c.Workload.BatchSize == 0 {
		c.Workload.BatchSize = workload.DefaultBatchSize
	}
	if c.Workload.HiddenDim == 0 {
		c.Workload.HiddenDim = workload.DefaultHiddenDim
	}
	if c.PreSCK == 0 {
		c.PreSCK = 1
	}
	if c.Seed == 0 {
		c.Seed = 0x6E6E6C61620A
	}
	if c.MemScale == 0 {
		c.MemScale = 1
	}
	return c
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if c.NumGPUs <= 0 {
		return fmt.Errorf("system: %s: NumGPUs must be positive", c.Name)
	}
	if c.Design == DesignGNNLab && c.ForceSamplers >= c.NumGPUs && c.NumGPUs > 1 {
		return fmt.Errorf("system: %s: ForceSamplers %d leaves no trainer GPU", c.Name, c.ForceSamplers)
	}
	if c.CacheRatioOverride > 1 {
		return fmt.Errorf("system: %s: CacheRatioOverride %v > 1", c.Name, c.CacheRatioOverride)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("system: %s: %w", c.Name, err)
	}
	return nil
}

// GNNLab returns the paper system's configuration for a workload.
func GNNLab(w workload.Spec, numGPUs int) Config {
	return Config{
		Name:               "GNNLab",
		Design:             DesignGNNLab,
		NumGPUs:            numGPUs,
		Workload:           w,
		Sampler:            device.SamplerGPUFisherYates,
		CacheEnabled:       true,
		CachePolicy:        cache.PolicyPreSC,
		CacheRatioOverride: -1,
		Sync:               true,
		Pipelined:          true,
	}
}

// TSOTA returns the T_SOTA baseline: time sharing with GPU-based
// Fisher–Yates sampling and a degree cache (§2).
func TSOTA(w workload.Spec, numGPUs int) Config {
	return Config{
		Name:               "T_SOTA",
		Design:             DesignTimeSharing,
		NumGPUs:            numGPUs,
		Workload:           w,
		Sampler:            device.SamplerGPUFisherYates,
		CacheEnabled:       true,
		CachePolicy:        cache.PolicyDegree,
		CacheRatioOverride: -1,
		Sync:               true,
		Pipelined:          false,
	}
}

// DGL returns the DGL baseline: time sharing with GPU-based reservoir
// sampling and no feature cache.
func DGL(w workload.Spec, numGPUs int) Config {
	return Config{
		Name:               "DGL",
		Design:             DesignTimeSharing,
		NumGPUs:            numGPUs,
		Workload:           w,
		Sampler:            device.SamplerGPUReservoir,
		SampleWSMultiplier: 2,
		CacheEnabled:       false,
		CacheRatioOverride: -1,
		Sync:               true,
		Pipelined:          false,
	}
}

// PyG returns the PyG baseline: CPU sampling, no cache.
func PyG(w workload.Spec, numGPUs int) Config {
	return Config{
		Name:               "PyG",
		Design:             DesignCPUSampling,
		NumGPUs:            numGPUs,
		Workload:           w,
		Sampler:            device.SamplerCPUPython,
		CacheEnabled:       false,
		CacheRatioOverride: -1,
		Sync:               true,
		Pipelined:          true,
	}
}

// AGL returns the batch-mode design discussed (and dismissed) in §3.
func AGL(w workload.Spec, numGPUs int) Config {
	return Config{
		Name:               "AGL",
		Design:             DesignBatchMode,
		NumGPUs:            numGPUs,
		Workload:           w,
		Sampler:            device.SamplerGPUFisherYates,
		CacheEnabled:       true,
		CachePolicy:        cache.PolicyPreSC,
		CacheRatioOverride: -1,
		Sync:               true,
		Pipelined:          true,
	}
}
