package core

import (
	"reflect"
	"strings"
	"testing"

	"gnnlab/internal/fault"
	"gnnlab/internal/gen"
	"gnnlab/internal/obs"
	"gnnlab/internal/workload"
)

// runWithFaults runs cfg over d with a fault plan attached.
func runWithFaults(t *testing.T, d *gen.Dataset, cfg Config, mem int64, ms float64, plan *fault.Plan) *Report {
	t.Helper()
	cfg.Faults = plan
	return runScaled(t, d, cfg, mem, ms)
}

// TestEmptyFaultPlanBitIdentical is the differential guarantee: a config
// carrying an empty fault plan produces a Report bit-identical to one
// carrying none, across every design.
func TestEmptyFaultPlanBitIdentical(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	for _, cfg := range []Config{GNNLab(w, 4), TSOTA(w, 4), PyG(w, 4), AGL(w, 4)} {
		clean := runWithFaults(t, d, cfg, mem, ms, nil)
		empty := runWithFaults(t, d, cfg, mem, ms, &fault.Plan{})
		if !reflect.DeepEqual(clean, empty) {
			t.Errorf("%s: empty fault plan perturbed the report:\nclean %v\nempty %v", cfg.Name, clean, empty)
		}
	}
}

// TestFaultedRunDeterministicAcrossWorkers: a seeded plan yields the
// same Report and the same fault.* counter values at any GOMAXPROCS.
func TestFaultedRunDeterministicAcrossWorkers(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	clean := runWithFaults(t, d, GNNLab(w, 4), mem, ms, nil)
	plan := fault.Generate(0xFA17, 8, fault.GenOptions{
		Epochs:    2, // runScaled measures 2 epochs
		EpochTime: clean.EpochTime,
		Trainers:  clean.Alloc.Trainers,
	})
	at := func(procs int) (*Report, [3]int64) {
		setProcs(t, procs)
		rec := obs.NewRecorder()
		cfg := GNNLab(w, 4)
		cfg.Obs = rec
		rep := runWithFaults(t, d, cfg, mem, ms, plan)
		reg := rec.Registry()
		return rep, [3]int64{
			reg.Counter("fault.injected").Value(),
			reg.Counter("fault.requeued_tasks").Value(),
			reg.Counter("fault.reallocations").Value(),
		}
	}
	base, baseCtrs := at(1)
	for _, procs := range procsCounts()[1:] {
		got, ctrs := at(procs)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("faulted report differs between GOMAXPROCS 1 and %d:\n  1: %v\n  %d: %v",
				procs, base, procs, got)
		}
		if ctrs != baseCtrs {
			t.Errorf("fault counters differ between GOMAXPROCS 1 and %d: %v vs %v",
				procs, baseCtrs, ctrs)
		}
	}
	if want := int64(plan.InjectedWithin(2)); baseCtrs[0] != want {
		t.Errorf("fault.injected = %d, want %d", baseCtrs[0], want)
	}
	if baseCtrs[1] != int64(base.RequeuedTasks) {
		t.Errorf("fault.requeued_tasks = %d, report says %d", baseCtrs[1], base.RequeuedTasks)
	}
}

// TestPermanentCrashInflatesAndReallocates: a trainer permanently lost
// mid-epoch aborts its in-flight task (requeued on a survivor), slows the
// epoch down, and makes the flexible scheduler re-split the survivors at
// the next epoch boundary.
func TestPermanentCrashInflatesAndReallocates(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	clean := runWithFaults(t, d, GNNLab(w, 4), mem, ms, nil)
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.KindTrainerCrash, Epoch: 0, Trainer: 0, At: 0.25 * clean.EpochTime},
	}}
	faulty := runWithFaults(t, d, GNNLab(w, 4), mem, ms, plan)
	if faulty.EpochTime <= clean.EpochTime {
		t.Errorf("permanent crash did not inflate epoch time: %v <= %v", faulty.EpochTime, clean.EpochTime)
	}
	if faulty.RequeuedTasks < 1 {
		t.Errorf("no task requeued after mid-epoch crash")
	}
	if len(faulty.FaultEvents) != faulty.RequeuedTasks {
		t.Errorf("FaultEvents %d != RequeuedTasks %d", len(faulty.FaultEvents), faulty.RequeuedTasks)
	}
	if faulty.Reallocations != 1 {
		t.Errorf("Reallocations = %d, want 1 (one permanent loss, one re-split)", faulty.Reallocations)
	}
}

// TestPinnedAllocationNeverReallocates: ForceSamplers pins the split, so
// permanent losses are carried as dead consumers instead.
func TestPinnedAllocationNeverReallocates(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	cfg := GNNLab(w, 4)
	cfg.ForceSamplers = 1
	clean := runWithFaults(t, d, cfg, mem, ms, nil)
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.KindTrainerCrash, Epoch: 0, Trainer: 0, At: 0.25 * clean.EpochTime},
	}}
	faulty := runWithFaults(t, d, cfg, mem, ms, plan)
	if faulty.Reallocations != 0 {
		t.Errorf("pinned split reallocated %d times", faulty.Reallocations)
	}
	if faulty.EpochTime <= clean.EpochTime {
		t.Errorf("carried-dead trainer did not inflate epoch time: %v <= %v", faulty.EpochTime, clean.EpochTime)
	}
}

// TestAllocFailForcesOOM: an alloc-fail event surfaces as a deterministic
// OOM report naming the injected fault.
func TestAllocFailForcesOOM(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.KindAllocFail, Label: "train-ws"}}}
	for _, cfg := range []Config{GNNLab(w, 4), TSOTA(w, 4), PyG(w, 4)} {
		rep := runWithFaults(t, d, cfg, mem, ms, plan)
		if !rep.OOM {
			t.Errorf("%s: injected alloc fault did not OOM", cfg.Name)
			continue
		}
		if !strings.Contains(rep.OOMReason, "injected") {
			t.Errorf("%s: OOM reason %q does not name the injected fault", cfg.Name, rep.OOMReason)
		}
	}
}
