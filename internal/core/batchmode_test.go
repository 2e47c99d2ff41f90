package core

import (
	"strings"
	"testing"

	"gnnlab/internal/gen"
	"gnnlab/internal/sched"
	"gnnlab/internal/sim"
	"gnnlab/internal/workload"
)

// Dedicated coverage for the batch-mode (AGL) design: determinism across
// worker counts, the topology-swap makespan arithmetic, the honest
// phase-alternating allocation, and both of its OOM paths.

func TestRunDeterministicAcrossWorkersBatchMode(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	assertReportsIdentical(t, d, AGL(w, 4), mem, ms)
}

// The allocation must not double-count GPUs: batch mode time-shares the
// same pool between the two roles.
func TestBatchModeAllocationPhased(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	rep := runScaled(t, d, AGL(w, 4), mem, ms)
	if rep.OOM {
		t.Fatalf("unexpected OOM: %s", rep.OOMReason)
	}
	want := sched.Allocation{Samplers: 4, Trainers: 4, Phased: true}
	if rep.Alloc != want {
		t.Errorf("Alloc = %+v, want %+v", rep.Alloc, want)
	}
	if got := rep.Alloc.NumGPUs(); got != 4 {
		t.Errorf("Alloc.NumGPUs() = %d, want 4 (phased roles share the pool)", got)
	}
	if s := rep.Alloc.String(); s != "4S<->4T" {
		t.Errorf("Alloc.String() = %q, want %q", s, "4S<->4T")
	}
	if s := (sched.Allocation{Samplers: 2, Trainers: 6}).String(); s != "2S6T" {
		t.Errorf("disjoint Alloc.String() = %q, want %q", s, "2S6T")
	}
}

// The two-phase epoch arithmetic, pinned with hand-computed numbers:
// producers start after the topology load, the swap inserts the cache
// load, and training consumes from time zero of the second phase.
func TestBatchModeTwoPhaseMakespan(t *testing.T) {
	rn := runner{cfg: Config{Epochs: 1}}
	rep := &Report{}
	tasks := []sim.Task{
		{Sample: 1, Extract: 2, Train: 3},
		{Sample: 1, Extract: 2, Train: 3},
	}
	spec := epochSpec{
		tasks:     tasks,
		producers: 1,
		opts:      sim.ConsumeOptions{NumTrainers: 1},
		twoPhase:  true,
		startAt:   5, // topology load
		phaseGap:  7, // cache load
	}
	got := rn.simulateEpoch(rep, spec)
	// Phase 1: one producer starts at 5, samples 1+1 -> sampleEnd = 7.
	// Swap: +7. Phase 2: one trainer, serial Extract+Train per task ->
	// (2+3)+(2+3) = 10. Total 7 + 7 + 10 = 24.
	if got != 24 {
		t.Errorf("two-phase makespan = %v, want 24", got)
	}
}

// End to end, an AGL epoch can never beat the phase-swap PCIe floor.
func TestBatchModeEpochIncludesSwapCosts(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	cfg := scaledCfg(AGL(w, 4), mem, ms)
	rep := mustRun(t, d, cfg)
	if rep.OOM {
		t.Fatalf("unexpected OOM: %s", rep.OOMReason)
	}
	cfgd := cfg.withDefaults()
	plan := planMemory(cfgd, d)
	if plan.err != nil {
		t.Fatal(plan.err)
	}
	if plan.topoBytes <= 0 || plan.cacheBytes <= 0 {
		t.Fatalf("degenerate plan: topo %d cache %d", plan.topoBytes, plan.cacheBytes)
	}
	floor := cfgd.Cost.PCIeLoadTime(plan.topoBytes) + cfgd.Cost.PCIeLoadTime(plan.cacheBytes)
	if rep.EpochTime <= floor {
		t.Errorf("EpochTime %v <= swap floor %v (topology + cache load must be on the critical path)",
			rep.EpochTime, floor)
	}
}

// Both memory-planning OOM paths, exercised directly on the design.
func TestBatchModePlanMemoryOOMPaths(t *testing.T) {
	base := planContext{
		cfg:      Config{Name: "AGL", CacheEnabled: true},
		topo:     100,
		sampleWS: 10,
		trainWS:  500,
		reserve:  10,
		vfb:      4,
		n:        1000,
	}

	sampling := base
	sampling.capBytes = 50 // reserve+topo+sampleWS = 120 does not fit
	plan := batchModeDesign{}.PlanMemory(sampling)
	if plan.err == nil || !strings.Contains(plan.err.Error(), "sampling phase") {
		t.Errorf("sampling-phase OOM not reported: %v", plan.err)
	}

	training := base
	training.capBytes = 200 // sampling fits (120), training needs 510
	plan = batchModeDesign{}.PlanMemory(training)
	if plan.err == nil || !strings.Contains(plan.err.Error(), "training phase") {
		t.Errorf("training-phase OOM not reported: %v", plan.err)
	}

	fits := base
	fits.capBytes = 1000
	plan = batchModeDesign{}.PlanMemory(fits)
	if plan.err != nil {
		t.Errorf("plan with ample memory failed: %v", plan.err)
	}
	if plan.cacheSlots <= 0 {
		t.Errorf("cacheSlots = %d, want > 0 from the training-phase leftovers", plan.cacheSlots)
	}
}

// End to end, an undersized GPU yields an OOM report (not an error),
// mirroring the paper's OOM table cells.
func TestBatchModeOOMEndToEnd(t *testing.T) {
	d, _, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	cfg := scaledCfg(AGL(w, 4), 1<<10, ms)
	rep := mustRun(t, d, cfg)
	if !rep.OOM {
		t.Fatalf("expected OOM at 1KiB GPU memory, got %v", rep)
	}
	if !strings.Contains(rep.OOMReason, "phase") {
		t.Errorf("OOMReason %q does not name the failing phase", rep.OOMReason)
	}
}
