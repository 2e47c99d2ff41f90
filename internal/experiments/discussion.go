package experiments

import (
	"fmt"

	"gnnlab/internal/core"
	"gnnlab/internal/gen"
	"gnnlab/internal/train"
	"gnnlab/internal/workload"
)

// Ablations for the §8 discussion paragraphs the paper argues informally.

// AblationBatchSize tests the §8 "Mini-batch size" discussion: larger
// mini-batches reduce the end-to-end epoch time (fewer per-batch
// overheads, better dedup), while convergence needs watching — updates per
// epoch shrink. The table reports the simulated GCN/PA epoch time per
// batch size together with real-training updates-to-target on the
// labelled dataset.
func AblationBatchSize(o Options) (*Table, error) {
	o = o.withDefaults()
	d, err := o.load(gen.PresetPA)
	if err != nil {
		return nil, err
	}
	conv, err := o.loadCSR(gen.PresetConv)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ablation-batchsize",
		Title:  "Mini-batch size (§8): simulated GCN/PA epoch vs real convergence",
		Header: []string{"Batch (x default)", "Batches/epoch", "Epoch (s)", "Real epochs to 95%", "Updates"},
	}
	base := o.batchSize()
	for _, factor := range []int{1, 2, 4} {
		w := o.spec(workload.GCN)
		w.BatchSize = base * factor
		cfg := o.apply(core.GNNLab(w, o.NumGPUs))
		rep, err := core.Run(d, cfg)
		if err != nil {
			return nil, err
		}
		res, err := train.Train(conv, train.Options{
			Model:          workload.GraphSAGE,
			BatchSize:      64 * factor,
			TargetAccuracy: 0.95,
			MaxEpochs:      40,
			EvalSize:       800 / o.Scale,
			Seed:           o.Seed,
		})
		if err != nil {
			return nil, err
		}
		epochs, updates := "-", "-"
		if res.Converged {
			epochs = fmt.Sprintf("%d", res.EpochsToTarget)
			updates = fmt.Sprintf("%d", res.UpdatesToTarget)
		}
		t.AddRow(fmt.Sprintf("%dx", factor), fmt.Sprintf("%d", rep.Batches),
			cellOrOOM(rep, func(r *core.Report) string { return secs(r.EpochTime) }),
			epochs, updates)
	}
	return t, nil
}

// AblationTrainSet tests the §8 "Training set" discussion: a larger
// training set grows every stage, the Extract stage fastest — and
// GNNLab's advantage over the time-sharing baseline widens because the
// baseline's small degree cache absorbs none of the extra traffic.
func AblationTrainSet(o Options) (*Table, error) {
	o = o.withDefaults()
	base, err := o.preset(gen.PresetPA)
	if err != nil {
		return nil, err
	}
	w := o.spec(workload.GCN)
	t := &Table{
		ID:     "ablation-trainset",
		Title:  "Training-set size (§8): GCN on the citation graph",
		Header: []string{"TS fraction", "GNNLab epoch (s)", "GNNLab E (s)", "T_SOTA epoch (s)", "T_SOTA/GNNLab"},
	}
	for _, mult := range []float64{0.5, 1, 2, 4} {
		cfg := base
		cfg.TrainFraction = base.TrainFraction * mult
		cfg.Name = fmt.Sprintf("%s/ts%.1f", base.Name, mult)
		d, err := o.datasets.Dataset(cfg, false)
		if err != nil {
			return nil, err
		}
		gl, err := core.Run(d, o.apply(core.GNNLab(w, o.NumGPUs)))
		if err != nil {
			return nil, err
		}
		ts, err := core.Run(d, o.apply(core.TSOTA(w, o.NumGPUs)))
		if err != nil {
			return nil, err
		}
		ratio := "-"
		if !gl.OOM && !ts.OOM && gl.EpochTime > 0 {
			ratio = fmt.Sprintf("%.1fx", ts.EpochTime/gl.EpochTime)
		}
		t.AddRow(fmt.Sprintf("%.1f%%", 100*cfg.TrainFraction),
			cellOrOOM(gl, func(r *core.Report) string { return secs(r.EpochTime) }),
			cellOrOOM(gl, func(r *core.Report) string { return secs(r.ExtractTot) }),
			cellOrOOM(ts, func(r *core.Report) string { return secs(r.EpochTime) }),
			ratio)
	}
	return t, nil
}
