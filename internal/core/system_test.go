package core

import (
	"fmt"
	"strings"
	"testing"

	"gnnlab/internal/cache"
	"gnnlab/internal/device"
	"gnnlab/internal/gen"
	"gnnlab/internal/measure"
	"gnnlab/internal/workload"
)

// testData holds every dataset this package's tests load, so each preset
// and scale is generated once per test binary.
var testData = measure.NewStore()

// loadScaled returns a preset shrunk by scale from testData.
func loadScaled(t *testing.T, preset string, scale int) *gen.Dataset {
	t.Helper()
	cfg, err := gen.PresetConfig(preset)
	if err != nil {
		t.Fatal(err)
	}
	d, err := testData.Dataset(gen.ScaleDown(cfg, scale), false)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// tinyDataset returns a fast scaled dataset plus matching (GPUMemory,
// MemScale) so capacity ratios stay paper-shaped.
func tinyDataset(t *testing.T, preset string, scale int) (*gen.Dataset, int64, float64) {
	t.Helper()
	return loadScaled(t, preset, scale), device.DefaultGPUMemory / int64(scale), float64(scale)
}

func scaledSpec(kind workload.ModelKind, scale int) workload.Spec {
	w := workload.NewSpec(kind)
	w.BatchSize = workload.DefaultBatchSize / scale * 8
	if w.BatchSize < 4 {
		w.BatchSize = 4
	}
	return w
}

func runScaled(t *testing.T, d *gen.Dataset, cfg Config, mem int64, memScale float64) *Report {
	t.Helper()
	cfg.GPUMemory = mem
	cfg.MemScale = memScale
	cfg.Epochs = 2
	rep, err := Run(d, cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	return rep
}

func TestRunDeterministic(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	a := runScaled(t, d, GNNLab(w, 4), mem, ms)
	b := runScaled(t, d, GNNLab(w, 4), mem, ms)
	if a.EpochTime != b.EpochTime || a.HitRate != b.HitRate || a.TransferredBytes != b.TransferredBytes {
		t.Errorf("runs differ: %v vs %v", a, b)
	}
}

func TestAllDesignsProduceSaneReports(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetTW, 16)
	w := scaledSpec(workload.GCN, 16)
	for _, cfg := range []Config{GNNLab(w, 4), TSOTA(w, 4), DGL(w, 4), PyG(w, 4), AGL(w, 4)} {
		rep := runScaled(t, d, cfg, mem, ms)
		if rep.OOM {
			t.Fatalf("%s OOM: %s", cfg.Name, rep.OOMReason)
		}
		if rep.EpochTime <= 0 || rep.TrainTot <= 0 {
			t.Errorf("%s: non-positive times %v", cfg.Name, rep)
		}
		if rep.Batches <= 0 {
			t.Errorf("%s: no batches", cfg.Name)
		}
		// End-to-end time cannot beat the per-executor train work.
		if rep.EpochTime < rep.TrainTot/float64(cfg.NumGPUs)-1e-9 {
			t.Errorf("%s: epoch %v beats train lower bound %v", cfg.Name, rep.EpochTime, rep.TrainTot/float64(cfg.NumGPUs))
		}
	}
}

func TestCacheRatioOverride(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	cfg := GNNLab(w, 4)
	cfg.CacheRatioOverride = 0.05
	rep := runScaled(t, d, cfg, mem, ms)
	if rep.CacheRatio < 0.045 || rep.CacheRatio > 0.055 {
		t.Errorf("override ratio %v, want ~0.05", rep.CacheRatio)
	}
}

// The dataset's feature dimension sets the extract traffic: the same
// graph generated at two widths, under distinct names.
func TestFeatureDimIncreasesTraffic(t *testing.T) {
	base, err := gen.PresetConfig(gen.PresetPA)
	if err != nil {
		t.Fatal(err)
	}
	base = gen.ScaleDown(base, 16)
	mem, ms := device.DefaultGPUMemory/16, 16.0
	w := scaledSpec(workload.GCN, 16)
	mk := func(dim int) *Report {
		cfg := base
		cfg.Name = fmt.Sprintf("%s/dim%d", base.Name, dim)
		cfg.FeatureDim = dim
		d, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return runScaled(t, d, DGL(w, 4), mem, ms)
	}
	small, big := mk(64), mk(512)
	if big.TransferredBytes <= small.TransferredBytes {
		t.Errorf("feature dim did not scale traffic: %d vs %d",
			small.TransferredBytes, big.TransferredBytes)
	}
}

func TestPoliciesOrderOnCitation(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	mk := func(p cache.PolicyKind) *Report {
		cfg := GNNLab(w, 4)
		cfg.CachePolicy = p
		return runScaled(t, d, cfg, mem, ms)
	}
	presc := mk(cache.PolicyPreSC)
	degree := mk(cache.PolicyDegree)
	random := mk(cache.PolicyRandom)
	if !(presc.HitRate > degree.HitRate && degree.HitRate > random.HitRate) {
		t.Errorf("policy hit rates out of order: presc %v degree %v random %v",
			presc.HitRate, degree.HitRate, random.HitRate)
	}
	if presc.PreSampleTime <= 0 {
		t.Error("PreSC run reported no pre-sampling cost")
	}
	if degree.PreSampleTime != 0 {
		t.Error("degree run reported pre-sampling cost")
	}
}

func TestMemoryPlanningOOM(t *testing.T) {
	d, _, _ := tinyDataset(t, gen.PresetUK, 8)
	w := scaledSpec(workload.GCN, 8)
	// Under time sharing at paper-proportional memory, UK GCN must OOM.
	cfg := TSOTA(w, 2)
	cfg.GPUMemory = device.DefaultGPUMemory / 8
	cfg.MemScale = 8
	cfg.Epochs = 1
	rep, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OOM {
		t.Errorf("T_SOTA on UK did not OOM (cache ratio %v)", rep.CacheRatio)
	}
	if !strings.Contains(rep.OOMReason, "out of GPU memory") {
		t.Errorf("OOM reason %q lacks cause", rep.OOMReason)
	}
	// GNNLab's dedicated sampler and trainer both fit.
	rep = runScaled(t, d, GNNLab(w, 2), device.DefaultGPUMemory/8, 8)
	if rep.OOM {
		t.Errorf("GNNLab on UK OOM: %s", rep.OOMReason)
	}
}

func TestWeightedTopologyCharge(t *testing.T) {
	d, _, _ := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	cfg := GNNLab(w, 2).withDefaults()
	unweighted := planMemory(cfg, d)
	wcfg := cfg
	wcfg.Workload.Weighted = true
	weighted := planMemory(wcfg, d)
	wantExtra := int64(d.NumVertices()) * 4
	if weighted.topoBytes-unweighted.topoBytes != wantExtra {
		t.Errorf("weighted topo extra %d, want %d (per-vertex years)",
			weighted.topoBytes-unweighted.topoBytes, wantExtra)
	}
}

func TestFlexibleSchedulingPicksReasonableAllocation(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	auto := runScaled(t, d, GNNLab(w, 8), mem, ms)
	if auto.Alloc.Samplers < 1 || auto.Alloc.Trainers < 1 {
		t.Fatalf("degenerate allocation %v", auto.Alloc)
	}
	// The formula's pick must be within 15% of the exhaustive best.
	best := auto.EpochTime
	for ns := 1; ns < 8; ns++ {
		cfg := GNNLab(w, 8)
		cfg.ForceSamplers = ns
		rep := runScaled(t, d, cfg, mem, ms)
		if !rep.OOM && rep.EpochTime < best {
			best = rep.EpochTime
		}
	}
	if auto.EpochTime > best*1.15 {
		t.Errorf("flexible scheduling chose %v (%.3fs), exhaustive best %.3fs",
			auto.Alloc, auto.EpochTime, best)
	}
}

func TestSingleGPUUsesStandby(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetTW, 16)
	w := scaledSpec(workload.GraphSAGE, 16)
	rep := runScaled(t, d, GNNLab(w, 1), mem, ms)
	if rep.OOM {
		t.Fatalf("single GPU OOM: %s", rep.OOMReason)
	}
	if rep.TasksByStandby == 0 {
		t.Error("single-GPU mode trained no tasks via the standby trainer")
	}
	if rep.Alloc.Samplers != 1 || rep.Alloc.Trainers != 0 {
		t.Errorf("single-GPU allocation %v", rep.Alloc)
	}
}

func TestDynamicSwitchingNeverHurts(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.PinSAGE, 16)
	base := GNNLab(w, 3)
	base.ForceSamplers = 1
	base.Sync = false
	off := runScaled(t, d, base, mem, ms)
	on := base
	on.DynamicSwitching = true
	onRep := runScaled(t, d, on, mem, ms)
	if onRep.EpochTime > off.EpochTime*1.01 {
		t.Errorf("switching hurt: %v -> %v", off.EpochTime, onRep.EpochTime)
	}
}

func TestOptimalPolicyBeatsOthersEndToEnd(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	mk := func(p cache.PolicyKind) *Report {
		cfg := GNNLab(w, 4)
		cfg.CachePolicy = p
		return runScaled(t, d, cfg, mem, ms)
	}
	opt := mk(cache.PolicyOptimal)
	for _, p := range []cache.PolicyKind{cache.PolicyRandom, cache.PolicyDegree, cache.PolicyPreSC} {
		if rep := mk(p); rep.HitRate > opt.HitRate+1e-9 {
			t.Errorf("%v hit rate %v beats optimal %v", p, rep.HitRate, opt.HitRate)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	w := workload.NewSpec(workload.GCN)
	if err := (Config{Name: "x", NumGPUs: 0}).Validate(); err == nil {
		t.Error("zero GPUs accepted")
	}
	bad := GNNLab(w, 4)
	bad.ForceSamplers = 4
	if err := bad.Validate(); err == nil {
		t.Error("all-sampler allocation accepted")
	}
	bad = GNNLab(w, 4)
	bad.CacheRatioOverride = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("cache ratio > 1 accepted")
	}
}

func TestPreprocessBreakdown(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	cfg := GNNLab(w, 4)
	cfg.GPUMemory = mem
	cfg.MemScale = ms
	p, err := Preprocess(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.DiskToDRAM <= 0 || p.LoadTopology <= 0 || p.LoadCache <= 0 || p.PreSample <= 0 {
		t.Errorf("preprocess breakdown has zeros: %+v", p)
	}
	if p.DRAMToGPU() != p.LoadTopology+p.LoadCache {
		t.Error("DRAMToGPU != topo + cache")
	}
	// Disk→DRAM moves far more bytes than DRAM→GPU at far lower rate.
	if p.DiskToDRAM < p.DRAMToGPU() {
		t.Errorf("disk load %v cheaper than GPU load %v", p.DiskToDRAM, p.DRAMToGPU())
	}
}

func TestLedgerForRoles(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	cfg := GNNLab(w, 4)
	cfg.GPUMemory = mem
	cfg.MemScale = ms
	sampler, trainer, err := LedgerFor(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	has := func(allocs []device.Allocation, label string) bool {
		for _, a := range allocs {
			if a.Label == label {
				return true
			}
		}
		return false
	}
	if !has(sampler, "topology") || has(sampler, "feature-cache") {
		t.Errorf("sampler ledger wrong: %v", sampler)
	}
	if !has(trainer, "feature-cache") || has(trainer, "topology") {
		t.Errorf("trainer ledger wrong: %v", trainer)
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{System: "X", Workload: "GCN", Dataset: "PA", OOM: true, OOMReason: "because"}
	if s := rep.String(); !strings.Contains(s, "OOM") {
		t.Errorf("OOM report string %q", s)
	}
}

func TestPartitionedSamplingRescue(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetUK, 8)
	w := scaledSpec(workload.GCN, 8)
	cfg := GNNLab(w, 4)
	cfg.GPUMemory = mem * 6 / 10 // force the topology past the sampler budget
	cfg.MemScale = ms
	cfg.Epochs = 1
	rep, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OOM {
		t.Fatalf("expected sampler OOM at reduced memory (partitions %d)", rep.SamplerPartitions)
	}
	cfg.PartitionedSampling = true
	rep2, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.OOM {
		t.Fatalf("partitioned sampling did not rescue: %s", rep2.OOMReason)
	}
	if rep2.SamplerPartitions < 2 {
		t.Errorf("partitions = %d, want >= 2", rep2.SamplerPartitions)
	}
	// The rescue costs time: compare against a machine where it fits.
	cfg3 := GNNLab(w, 4)
	cfg3.GPUMemory = mem
	cfg3.MemScale = ms
	cfg3.Epochs = 1
	rep3, err := Run(d, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.SampleTotal <= rep3.SampleTotal {
		t.Errorf("partitioned sample stage %.3f not above resident %.3f",
			rep2.SampleTotal, rep3.SampleTotal)
	}
}

func TestAGLSlowerThanGNNLab(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetTW, 16)
	w := scaledSpec(workload.GCN, 16)
	gl := runScaled(t, d, GNNLab(w, 4), mem, ms)
	agl := runScaled(t, d, AGL(w, 4), mem, ms)
	if gl.OOM || agl.OOM {
		t.Fatal("unexpected OOM")
	}
	if agl.EpochTime <= gl.EpochTime {
		t.Errorf("AGL %.3f not slower than GNNLab %.3f despite per-epoch reloads",
			agl.EpochTime, gl.EpochTime)
	}
}

func TestPyGUsesCPUPool(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	few := PyG(w, 4)
	few.CPUSamplerWorkers = 1
	many := PyG(w, 4)
	many.CPUSamplerWorkers = 12
	slow := runScaled(t, d, few, mem, ms)
	fast := runScaled(t, d, many, mem, ms)
	if fast.EpochTime >= slow.EpochTime {
		t.Errorf("more CPU sampler workers did not help: %.3f vs %.3f",
			fast.EpochTime, slow.EpochTime)
	}
}

func TestWeightedWorkloadRuns(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetTW, 16)
	w := scaledSpec(workload.GCN, 16)
	w.Weighted = true
	rep := runScaled(t, d, GNNLab(w, 4), mem, ms)
	if rep.OOM {
		t.Fatalf("weighted workload OOM: %s", rep.OOMReason)
	}
	if rep.Workload != "GCN(W)" {
		t.Errorf("workload name %q", rep.Workload)
	}
}

func TestTraceTimeline(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	cfg := GNNLab(w, 4)
	cfg.Trace = true
	rep := runScaled(t, d, cfg, mem, ms)
	if len(rep.Timeline) != rep.Batches {
		t.Fatalf("timeline has %d records for %d batches", len(rep.Timeline), rep.Batches)
	}
	for _, rec := range rep.Timeline {
		if rec.TrainEnd > rep.EpochTime*1.5 {
			t.Fatalf("task %d trains at %v, far past the epoch makespan", rec.Task, rec.TrainEnd)
		}
		if rec.ExtractStart < rec.Ready || rec.TrainStart < rec.ExtractEnd {
			t.Fatalf("task %d timeline inconsistent: %+v", rec.Task, rec)
		}
	}
	// Without Trace the timeline stays empty.
	cfg.Trace = false
	if rep := runScaled(t, d, cfg, mem, ms); rep.Timeline != nil {
		t.Error("timeline recorded without Trace")
	}
}

func TestSingleGPUOOMWhenStandbyCannotFit(t *testing.T) {
	// UK GCN on one GPU: topology + training workspace exceed the card,
	// so even role alternation is impossible (the paper's single-GPU
	// mode requires both resident).
	d, mem, ms := tinyDataset(t, gen.PresetUK, 8)
	w := scaledSpec(workload.GCN, 8)
	cfg := GNNLab(w, 1)
	cfg.GPUMemory = mem
	cfg.MemScale = ms
	cfg.Epochs = 1
	rep, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OOM {
		t.Fatalf("single-GPU UK GCN should OOM, got epoch %.3f", rep.EpochTime)
	}
	if !strings.Contains(rep.OOMReason, "single GPU") {
		t.Errorf("OOM reason %q should explain the single-GPU constraint", rep.OOMReason)
	}
}

func TestBatchModeOOMPath(t *testing.T) {
	d, _, _ := tinyDataset(t, gen.PresetUK, 8)
	w := scaledSpec(workload.GCN, 8)
	cfg := AGL(w, 2)
	cfg.GPUMemory = device.DefaultGPUMemory / 16 // half the proportional budget
	cfg.MemScale = 8
	cfg.Epochs = 1
	rep, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OOM {
		t.Error("batch mode with an undersized GPU should OOM")
	}
}

func TestCPUSamplingSkipsGPUTopology(t *testing.T) {
	// PyG keeps the topology in host memory: even a GPU too small for
	// the graph runs, provided the training workspace fits.
	d, _, _ := tinyDataset(t, gen.PresetUK, 8)
	w := scaledSpec(workload.GraphSAGE, 8)
	cfg := PyG(w, 2)
	cfg.GPUMemory = device.DefaultGPUMemory / 32 // far below Vol_G
	cfg.MemScale = 8
	cfg.Epochs = 1
	rep, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OOM {
		t.Errorf("CPU-sampling design should not need the topology on GPU: %s", rep.OOMReason)
	}
}
