package experiments

import (
	"fmt"

	"gnnlab/internal/cache"
	"gnnlab/internal/core"
	"gnnlab/internal/device"
	"gnnlab/internal/gen"
	"gnnlab/internal/workload"
)

// Figure3 reproduces the §3 memory-usage breakdown: the labelled GPU
// allocation ledger of each role (time-sharing GPU vs GNNLab Sampler and
// Trainer) for GCN on PA.
func Figure3(o Options) (*Table, error) {
	o = o.withDefaults()
	d, err := o.load(gen.PresetPA)
	if err != nil {
		return nil, err
	}
	w := o.spec(workload.GCN)
	t := &Table{
		ID:     "figure3",
		Title:  "GPU memory breakdown for GCN on PA",
		Header: []string{"Role", "Allocation", "Bytes"},
	}
	addLedger := func(role string, allocs []device.Allocation) {
		var total int64
		for _, a := range allocs {
			t.AddRow(role, a.Label, megabytes(a.Bytes))
			total += a.Bytes
		}
		t.AddRow(role, "(total)", megabytes(total))
	}
	tsCfg := o.apply(core.TSOTA(w, 1))
	shared, _, err := core.LedgerFor(tsCfg, d)
	if err != nil {
		return nil, err
	}
	glCfg := o.apply(core.GNNLab(w, o.NumGPUs))
	samp, trainer, err := core.LedgerFor(glCfg, d)
	if err != nil {
		return nil, err
	}
	addLedger("time-sharing GPU", shared)
	addLedger("GNNLab Sampler", samp)
	addLedger("GNNLab Trainer", trainer)
	return t, nil
}

// Figure12 reproduces the Extract-time comparison by caching policy: the
// per-epoch Extract time of GNNLab under Degree, Random and PreSC#1 for
// four workloads over TW, PA and UK (PR is omitted because its features
// fit entirely in GPU memory, as in the paper).
func Figure12(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:     "figure12",
		Title:  "Extract time per epoch (s) by caching policy (GNNLab)",
		Header: []string{"Workload", "Dataset", "Degree", "Random", "PreSC#1"},
	}
	workloads := []struct {
		label string
		spec  workload.Spec
	}{
		{"GCN", o.spec(workload.GCN)},
		{"GCN (W.)", weightedGCN(o)},
		{"GSG", o.spec(workload.GraphSAGE)},
		{"PSG", o.spec(workload.PinSAGE)},
	}
	policies := []cache.PolicyKind{cache.PolicyDegree, cache.PolicyRandom, cache.PolicyPreSC}
	presets := []string{gen.PresetTW, gen.PresetPA, gen.PresetUK}
	rows := make([][]string, len(workloads)*len(presets))
	if err := runCells(len(rows), func(i int) error {
		wl, name := workloads[i/len(presets)], presets[i%len(presets)]
		d, err := o.load(name)
		if err != nil {
			return err
		}
		row := []string{wl.label, name}
		for _, pol := range policies {
			cfg := o.apply(core.GNNLab(wl.spec, o.NumGPUs))
			cfg.CachePolicy = pol
			rep, err := core.Run(d, cfg)
			if err != nil {
				return err
			}
			row = append(row, cellOrOOM(rep, func(r *core.Report) string { return secs(r.ExtractTot) }))
		}
		rows[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// weightedGCN returns the 3-hop weighted GCN workload of §7.4.
func weightedGCN(o Options) workload.Spec {
	w := o.spec(workload.GCN)
	w.Weighted = true
	return w
}

// Figure13 reproduces the end-to-end epoch time of GNNLab under different
// caching policies, with the Table 4 GPU allocation.
func Figure13(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:     "figure13",
		Title:  fmt.Sprintf("Epoch time (s) by caching policy (GNNLab, %d GPUs)", o.NumGPUs),
		Header: []string{"Workload", "Dataset", "Degree", "Random", "PreSC#1"},
	}
	workloads := []struct {
		label string
		spec  workload.Spec
	}{
		{"GCN", o.spec(workload.GCN)},
		{"GCN (W.)", weightedGCN(o)},
		{"GSG", o.spec(workload.GraphSAGE)},
		{"PSG", o.spec(workload.PinSAGE)},
	}
	policies := []cache.PolicyKind{cache.PolicyDegree, cache.PolicyRandom, cache.PolicyPreSC}
	presets := []string{gen.PresetTW, gen.PresetPA, gen.PresetUK}
	rows := make([][]string, len(workloads)*len(presets))
	if err := runCells(len(rows), func(i int) error {
		wl, name := workloads[i/len(presets)], presets[i%len(presets)]
		d, err := o.load(name)
		if err != nil {
			return err
		}
		row := []string{wl.label, name}
		for _, pol := range policies {
			cfg := o.apply(core.GNNLab(wl.spec, o.NumGPUs))
			cfg.CachePolicy = pol
			rep, err := core.Run(d, cfg)
			if err != nil {
				return err
			}
			row = append(row, cellOrOOM(rep, func(r *core.Report) string { return secs(r.EpochTime) }))
		}
		rows[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// Figure14 reproduces the scalability study: epoch time of DGL, T_SOTA and
// GNNLab (with 1, 2 and 3 Samplers) for GCN on PA and TW as the GPU count
// grows.
func Figure14(o Options) (*Table, error) {
	o = o.withDefaults()
	w := o.spec(workload.GCN)
	t := &Table{
		ID:     "figure14",
		Title:  "Scalability: GCN epoch time (s) vs number of GPUs",
		Header: []string{"Dataset", "GPUs", "DGL", "T_SOTA", "GNNLab/1S", "GNNLab/2S", "GNNLab/3S"},
	}
	presets := []string{gen.PresetPA, gen.PresetTW}
	nGPUCounts := o.NumGPUs - 1 // 2..NumGPUs
	rows := make([][]string, len(presets)*nGPUCounts)
	if err := runCells(len(rows), func(i int) error {
		name := presets[i/nGPUCounts]
		gpus := 2 + i%nGPUCounts
		d, err := o.load(name)
		if err != nil {
			return err
		}
		row := []string{name, fmt.Sprintf("%d", gpus)}
		for _, mk := range []func(workload.Spec, int) core.Config{core.DGL, core.TSOTA} {
			rep, err := core.Run(d, o.apply(mk(w, gpus)))
			if err != nil {
				return err
			}
			row = append(row, cellOrOOM(rep, func(r *core.Report) string { return secs(r.EpochTime) }))
		}
		for ns := 1; ns <= 3; ns++ {
			if ns >= gpus {
				row = append(row, "-")
				continue
			}
			cfg := o.apply(core.GNNLab(w, gpus))
			cfg.ForceSamplers = ns
			rep, err := core.Run(d, cfg)
			if err != nil {
				return err
			}
			row = append(row, cellOrOOM(rep, func(r *core.Report) string { return secs(r.EpochTime) }))
		}
		rows[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// Figure15 reproduces the allocation sweep: the per-epoch stage times and
// end-to-end time of GNNLab for GCN on PA across every mS×nT split of the
// machine.
func Figure15(o Options) (*Table, error) {
	o = o.withDefaults()
	d, err := o.load(gen.PresetPA)
	if err != nil {
		return nil, err
	}
	w := o.spec(workload.GCN)
	t := &Table{
		ID:     "figure15",
		Title:  "GNNLab GCN on PA: stage and epoch times (s) by allocation",
		Header: []string{"Alloc", "Sample", "Extract", "Train", "Epoch"},
	}
	type split struct{ ns, nt int }
	var splits []split
	for ns := 1; ns <= 3; ns++ {
		for nt := 1; ns+nt <= o.NumGPUs; nt++ {
			splits = append(splits, split{ns, nt})
		}
	}
	rows := make([][]string, len(splits))
	if err := runCells(len(splits), func(i int) error {
		ns, nt := splits[i].ns, splits[i].nt
		cfg := o.apply(core.GNNLab(w, ns+nt))
		cfg.ForceSamplers = ns
		rep, err := core.Run(d, cfg)
		if err != nil {
			return err
		}
		if rep.OOM {
			rows[i] = []string{fmt.Sprintf("%dS%dT", ns, nt), "OOM", "", "", ""}
			return nil
		}
		rows[i] = []string{fmt.Sprintf("%dS%dT", ns, nt),
			secs(rep.SampleTotal), secs(rep.ExtractTot), secs(rep.TrainTot), secs(rep.EpochTime)}
		return nil
	}); err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// Figure17a reproduces the dynamic-switching study: PinSAGE on PA with one
// Sampler GPU and a growing trainer count, with and without switching
// (asynchronous updates, as in §7.8).
func Figure17a(o Options) (*Table, error) {
	o = o.withDefaults()
	d, err := o.load(gen.PresetPA)
	if err != nil {
		return nil, err
	}
	w := o.spec(workload.PinSAGE)
	t := &Table{
		ID:     "figure17a",
		Title:  "PinSAGE on PA, 1 Sampler: epoch time (s) with/without dynamic switching",
		Header: []string{"Trainers", "w/o DS", "w/ DS", "standby tasks/epoch"},
	}
	rows := make([][]string, o.NumGPUs-1)
	if err := runCells(len(rows), func(i int) error {
		nt := i + 1
		base := o.apply(core.GNNLab(w, nt+1))
		base.ForceSamplers = 1
		base.Sync = false
		off := base
		rep1, err := core.Run(d, off)
		if err != nil {
			return err
		}
		on := base
		on.DynamicSwitching = true
		rep2, err := core.Run(d, on)
		if err != nil {
			return err
		}
		standby := "-"
		if !rep2.OOM {
			standby = fmt.Sprintf("%.1f", float64(rep2.TasksByStandby)/float64(rep2.Epochs))
		}
		rows[i] = []string{fmt.Sprintf("%d", nt),
			cellOrOOM(rep1, func(r *core.Report) string { return secs(r.EpochTime) }),
			cellOrOOM(rep2, func(r *core.Report) string { return secs(r.EpochTime) }),
			standby}
		return nil
	}); err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// Figure17b reproduces the single-GPU comparison: one epoch of GraphSAGE
// on a single GPU across systems; GNNLab alternates Sampler and Trainer
// roles via dynamic switching.
func Figure17b(o Options) (*Table, error) {
	o = o.withDefaults()
	w := o.spec(workload.GraphSAGE)
	t := &Table{
		ID:     "figure17b",
		Title:  "GraphSAGE epoch time (s) on a single GPU",
		Header: []string{"Dataset", "DGL", "T_SOTA", "GNNLab"},
	}
	presets := gen.PresetNames()
	rows := make([][]string, len(presets))
	if err := runCells(len(presets), func(i int) error {
		d, err := o.load(presets[i])
		if err != nil {
			return err
		}
		row := []string{presets[i]}
		for _, mk := range []func(workload.Spec, int) core.Config{core.DGL, core.TSOTA, core.GNNLab} {
			rep, err := core.Run(d, o.apply(mk(w, 1)))
			if err != nil {
				return err
			}
			row = append(row, cellOrOOM(rep, func(r *core.Report) string { return secs(r.EpochTime) }))
		}
		rows[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}
