package experiments

import (
	"fmt"

	"gnnlab/internal/core"
	"gnnlab/internal/fault"
	"gnnlab/internal/gen"
	"gnnlab/internal/sim"
	"gnnlab/internal/workload"
)

// Serving turns the paper's factored-vs-time-sharing comparison into a
// serving comparison: for each Sampler/Trainer split of a 4-GPU machine,
// an open-loop Poisson request stream (sim.Serve) is pushed through a
// microbatched sample→extract→forward pipeline whose stage costs are
// derived from a real measured training run at that split
// (core.Run's per-mini-batch Sample/Extract/Train totals). The table
// reports p50/p99 latency and shed fraction at 50%/80%/95% of each
// split's maximum sustainable QPS, the max itself, and a fault-injected
// row (trainer crash + PCIe degrade from internal/fault) at 80% load.
//
// Everything downstream of the measured stage costs is simulation, so
// the table is bit-identical across hosts and worker counts.
func Serving(o Options) (*Table, error) {
	o = o.withDefaults()
	d, err := o.load(gen.PresetPA)
	if err != nil {
		return nil, err
	}
	w := o.spec(workload.GCN)
	gpus := o.NumGPUs
	if gpus > 4 {
		gpus = 4
	}
	if gpus < 2 {
		gpus = 2
	}
	splits := make([]int, 0, gpus-1)
	for ns := 1; ns < gpus; ns++ {
		splits = append(splits, ns)
	}

	// The serving microbatch coalesces up to one training-batch worth of
	// requests, so measured per-batch stage costs translate directly.
	batch := w.BatchSize
	const (
		// fixedFrac is the per-batch overhead fraction that does not
		// scale with batch occupancy (kernel launches, queue and
		// metadata bookkeeping — the host-side costs the
		// metadata-overheads literature measures at 20-30%).
		fixedFrac = 0.25
		// forwardFrac scales the measured Train stage (forward+backward+
		// optimizer) down to serving's forward-only pass.
		forwardFrac = 0.35
	)

	type cell struct {
		rows [][]string
	}
	cells := make([]cell, len(splits))
	requests := 4000 / o.Scale
	if requests < 500 {
		requests = 500
	}

	err = runCells(len(splits), func(i int) error {
		ns := splits[i]
		cfg := o.apply(core.GNNLab(w, gpus))
		cfg.ForceSamplers = ns
		rep, err := core.Run(d, cfg)
		if err != nil {
			return err
		}
		if rep.OOM {
			return fmt.Errorf("serving: split %dS/%dT OOM: %s", ns, gpus-ns, rep.OOMReason)
		}
		nb := float64(rep.Batches)
		perSample := rep.SampleTotal / nb
		perExtract := rep.ExtractTot / nb
		perTrain := rep.TrainTot / nb * forwardFrac
		cost := sim.BatchCost{
			SampleFixed:   fixedFrac * perSample,
			SamplePerReq:  (1 - fixedFrac) * perSample / float64(batch),
			ExtractFixed:  fixedFrac * perExtract,
			ExtractPerReq: (1 - fixedFrac) * perExtract / float64(batch),
			TrainFixed:    fixedFrac * perTrain,
			TrainPerReq:   (1 - fixedFrac) * perTrain / float64(batch),
		}
		unloaded := cost.SampleFixed + cost.SamplePerReq +
			cost.ExtractFixed + cost.ExtractPerReq + cost.TrainFixed + cost.TrainPerReq
		scfg := sim.ServeConfig{
			Samplers:  ns,
			Trainers:  gpus - ns,
			BatchSize: batch,
			QueueCap:  8 * batch,
			Deadline:  8 * unloaded,
			Cost:      cost,
			Requests:  requests,
		}
		maxQPS, _ := sim.MaxSustainableQPS(scfg, o.Seed^0x5E12E, sim.SustainOptions{Requests: requests})
		if maxQPS <= 0 {
			cells[i].rows = [][]string{{splitName(ns, gpus-ns), "-", "0", "-", "-", "-", "-"}}
			return nil
		}

		run := func(frac float64, f *sim.Faults) sim.ServeResult {
			c := scfg
			c.Arrivals = sim.PoissonArrivals(o.Seed^0x5E12E, maxQPS*frac)
			c.Faults = f
			return sim.Serve(c)
		}
		addRow := func(load string, qps float64, r sim.ServeResult) {
			shed := float64(r.ShedQueueFull+r.ShedDeadline+r.Expired) / float64(r.Offered)
			cells[i].rows = append(cells[i].rows, []string{
				splitName(ns, gpus-ns), load, fmt.Sprintf("%.0f", qps),
				millis(r.P50), millis(r.P99), pct(shed),
				fmt.Sprintf("%.1f", r.MeanBatchOccupancy),
			})
		}
		for _, frac := range []float64{0.50, 0.80, 0.95, 1.00} {
			load := pct(frac)
			if frac == 1 {
				load = "max"
			}
			addRow(load, maxQPS*frac, run(frac, nil))
		}
		// Fault row: the resilience plan generator aimed at this split's
		// trainers, over the 80%-load run's horizon.
		plan := fault.Generate(o.Seed^0xFA17, 4, fault.GenOptions{
			Epochs:    1,
			EpochTime: float64(requests) / (maxQPS * 0.80),
			Trainers:  gpus - ns,
		})
		addRow("80%+faults", maxQPS*0.80, run(0.80, plan.SimFaults(0)))
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "serving",
		Title: fmt.Sprintf("GCN on PA (%d GPUs): online inference p50/p99 vs offered QPS per Sampler/Trainer split", gpus),
		Header: []string{
			"Split", "Load", "QPS", "p50", "p99", "Shed", "Batch occ.",
		},
		Notes: []string{
			"stage costs from the measured training run at each split; forward-only serving scales Train by " + pct(forwardFrac),
			fmt.Sprintf("deadline 8x the unloaded single-request latency; Poisson arrivals, %d requests, seed-keyed", requests),
			"max = highest rate with shed <= 1% and p99 within deadline; fault row injects trainer crashes + PCIe degrade at 80% load",
			"p50/p99 in milliseconds; simulation downstream of measured costs, bit-identical at any worker count",
		},
	}
	for _, c := range cells {
		for _, row := range c.rows {
			t.AddRow(row...)
		}
	}
	return t, nil
}

func splitName(ns, nt int) string { return fmt.Sprintf("%dS/%dT", ns, nt) }

func millis(v float64) string { return fmt.Sprintf("%.1fms", v*1e3) }
