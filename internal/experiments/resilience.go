package experiments

import (
	"fmt"

	"gnnlab/internal/core"
	"gnnlab/internal/fault"
	"gnnlab/internal/gen"
	"gnnlab/internal/workload"
)

// Resilience measures epoch-time inflation versus the number of injected
// faults: a fault-free baseline fixes the epoch-time horizon and trainer
// count, then seed-keyed plans of growing size (transient and permanent
// trainer crashes, slowdown windows, PCIe degradation, queue stalls — see
// internal/fault.Generate) are injected into the same GNNLab run. Crashed
// trainers requeue their in-flight tasks and, after a permanent loss, the
// flexible scheduler re-splits the surviving GPUs at the next epoch
// boundary.
func Resilience(o Options) (*Table, error) {
	o = o.withDefaults()
	d, err := o.load(gen.PresetPA)
	if err != nil {
		return nil, err
	}
	w := o.spec(workload.GCN)
	// A 4-GPU machine keeps multiple Trainers in play so crashes have
	// survivors to requeue onto (and a split worth re-running).
	gpus := o.NumGPUs
	if gpus > 4 {
		gpus = 4
	}
	run := func(plan *fault.Plan) (*core.Report, error) {
		cfg := o.apply(core.GNNLab(w, gpus))
		cfg.DynamicSwitching = true
		cfg.Faults = plan
		return core.Run(d, cfg)
	}
	base, err := run(nil)
	if err != nil {
		return nil, err
	}
	if base.OOM {
		return nil, fmt.Errorf("resilience: baseline OOM: %s", base.OOMReason)
	}

	counts := []int{1, 2, 4, 8, 16}
	if o.Faults > 0 {
		counts = nil
		for n := 1; n <= o.Faults; n *= 2 {
			counts = append(counts, n)
		}
	}
	t := &Table{
		ID:     "resilience",
		Title:  fmt.Sprintf("GCN on PA (%d GPUs): epoch-time inflation vs injected faults", gpus),
		Header: []string{"Faults", "Epoch time", "Inflation", "Requeued", "Reallocations"},
		Notes: []string{
			fmt.Sprintf("fault-free baseline %.3fs; plans seed-keyed off the experiment seed", base.EpochTime),
			"a fault plan is data: the same seed and plan reproduce a bit-identical report",
		},
	}
	t.AddRow("0", secs(base.EpochTime), "1.00x", "0", "0")
	reps := make([]*core.Report, len(counts))
	err = runCells(len(counts), func(i int) error {
		plan := fault.Generate(o.Seed^0xFA17, counts[i], fault.GenOptions{
			Epochs:    o.Epochs,
			EpochTime: base.EpochTime,
			Trainers:  base.Alloc.Trainers,
		})
		rep, err := run(plan)
		if err != nil {
			return err
		}
		reps[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, rep := range reps {
		if rep.OOM {
			t.AddRow(fmt.Sprint(counts[i]), "OOM", "-", "-", "-")
			continue
		}
		t.AddRow(
			fmt.Sprint(counts[i]),
			secs(rep.EpochTime),
			fmt.Sprintf("%.2fx", rep.EpochTime/base.EpochTime),
			fmt.Sprint(rep.RequeuedTasks),
			fmt.Sprint(rep.Reallocations),
		)
	}
	return t, nil
}
