package experiments

import (
	"errors"
	"fmt"

	"gnnlab/internal/cache"
	"gnnlab/internal/core"
	"gnnlab/internal/device"
	"gnnlab/internal/gen"
	"gnnlab/internal/sampling"
	"gnnlab/internal/workload"
)

// Table1 reproduces the §2 motivation table: the epoch breakdown of DGL
// and T_SOTA on a single GPU training GCN on PA, with GPU-based sampling
// and GPU-based caching toggled independently.
func Table1(o Options) (*Table, error) {
	o = o.withDefaults()
	d, err := o.load(gen.PresetPA)
	if err != nil {
		return nil, err
	}
	w := o.spec(workload.GCN)

	type variant struct {
		name    string
		cfg     core.Config
		sampler device.SamplerKind
		caching bool
	}
	dgl := core.DGL(w, 1)
	tsota := core.TSOTA(w, 1)
	variants := []variant{
		{"DGL", dgl, device.SamplerCPU, false},
		{"DGL w/ GPU Sampling", dgl, device.SamplerGPUReservoir, false},
		{"T_SOTA", tsota, device.SamplerCPU, false},
		{"T_SOTA w/ GPU Caching", tsota, device.SamplerCPU, true},
		{"T_SOTA w/ GPU Sampling", tsota, device.SamplerGPUFisherYates, false},
		{"T_SOTA w/ Both", tsota, device.SamplerGPUFisherYates, true},
	}
	t := &Table{
		ID:     "table1",
		Title:  "Epoch breakdown (s): 3-layer GCN on PA, 1 GPU",
		Header: []string{"System", "Sample", "Extract", "Train", "Total"},
	}
	reps := make([]*core.Report, len(variants))
	if err := runCells(len(variants), func(i int) error {
		v := variants[i]
		cfg := o.apply(v.cfg)
		cfg.Name = v.name
		cfg.Sampler = v.sampler
		cfg.CacheEnabled = v.caching
		rep, err := core.Run(d, cfg)
		reps[i] = rep
		return err
	}); err != nil {
		return nil, err
	}
	for i, v := range variants {
		rep := reps[i]
		if rep.OOM {
			t.AddRow(v.name, "OOM", "OOM", "OOM", "OOM")
			continue
		}
		t.AddRow(v.name, secs(rep.SampleTotal), secs(rep.ExtractTot), secs(rep.TrainTot), secs(rep.EpochTime))
	}
	return t, nil
}

// Table2 reproduces the §6.2 epoch-similarity analysis: the overlap of the
// top-10% access footprints between adjacent sampling epochs, for three
// sampling algorithms over the four graphs.
func Table2(o Options) (*Table, error) {
	o = o.withDefaults()
	algs := []struct {
		name string
		alg  sampling.Algorithm
	}{
		{"3-hop random", sampling.ForGCN()},
		{"Random walks", sampling.ForPinSAGE()},
		{"3-hop weighted", sampling.ForGCNWeighted()},
	}
	t := &Table{
		ID:     "table2",
		Title:  "Similarity (%) of top-10% access footprint between adjacent epochs",
		Header: []string{"Sampling algorithm", "PR", "TW", "PA", "UK"},
	}
	const epochs = 4
	presets := gen.PresetNames()
	cells := make([]string, len(algs)*len(presets))
	if err := runCells(len(cells), func(i int) error {
		a, name := algs[i/len(presets)], presets[i%len(presets)]
		d, err := o.load(name)
		if err != nil {
			return err
		}
		fps := cache.CollectEpochFootprints(d.Graph, a.alg, d.TrainSet, o.batchSize(), epochs, o.Seed)
		var sum float64
		for j := 1; j < len(fps); j++ {
			sum += cache.Similarity(fps[j-1], fps[j], 0.10)
		}
		cells[i] = fmt.Sprintf("%.2f", 100*sum/float64(len(fps)-1))
		return nil
	}); err != nil {
		return nil, err
	}
	for ai, a := range algs {
		row := append([]string{a.name}, cells[ai*len(presets):(ai+1)*len(presets)]...)
		t.AddRow(row...)
	}
	return t, nil
}

// Table3 reproduces the dataset inventory.
func Table3(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:     "table3",
		Title:  "Datasets (1/100-scale analogues of the paper's)",
		Header: []string{"Dataset", "#Vertex", "#Edge", "Dim", "#TS", "Vol_G", "Vol_F"},
	}
	for _, name := range gen.PresetNames() {
		d, err := o.load(name)
		if err != nil {
			return nil, err
		}
		t.AddRow(name,
			fmt.Sprintf("%d", d.NumVertices()),
			fmt.Sprintf("%d", d.Graph.NumEdges()),
			fmt.Sprintf("%d", d.FeatureDim),
			fmt.Sprintf("%d", len(d.TrainSet)),
			megabytes(d.Graph.TopologyBytesUnweighted()),
			megabytes(d.FeatureBytes()))
	}
	return t, nil
}

// Table4 reproduces the headline end-to-end comparison: epoch time of PyG,
// DGL, T_SOTA and GNNLab for three models over four graphs on 8 GPUs.
func Table4(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:     "table4",
		Title:  fmt.Sprintf("Epoch time (s) on %d GPUs", o.NumGPUs),
		Header: []string{"Model", "Dataset", "PyG", "DGL", "T_SOTA", "GNNLab", "(alloc)"},
	}
	kinds := workload.Kinds()
	presets := gen.PresetNames()
	rows := make([][]string, len(kinds)*len(presets))
	if err := runCells(len(rows), func(i int) error {
		kind, name := kinds[i/len(presets)], presets[i%len(presets)]
		w := o.spec(kind)
		d, err := o.load(name)
		if err != nil {
			return err
		}
		row := []string{kind.String(), name}
		var alloc string
		for _, mk := range []func(workload.Spec, int) core.Config{core.PyG, core.DGL, core.TSOTA, core.GNNLab} {
			cfg := o.apply(mk(w, o.NumGPUs))
			if kind == workload.PinSAGE && cfg.Design == core.DesignCPUSampling {
				row = append(row, "x") // PyG does not support PinSAGE (Table 4)
				continue
			}
			rep, err := core.Run(d, cfg)
			if err != nil {
				return err
			}
			row = append(row, cellOrOOM(rep, func(r *core.Report) string { return secs(r.EpochTime) }))
			if cfg.Design == core.DesignGNNLab && !rep.OOM {
				alloc = rep.Alloc.String()
			}
		}
		rows[i] = append(row, alloc)
		return nil
	}); err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// Table5 reproduces the stage-level breakdown on two GPUs: DGL, T_SOTA and
// GNNLab (1S1T), with the Sample stage decomposed into G/M/C and the
// Extract stage annotated with cache ratio and hit rate.
func Table5(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:    "table5",
		Title: "Epoch breakdown (s) on 2 GPUs; GNNLab runs 1S1T",
		Header: []string{"Model", "Dataset", "System", "S", "G", "M", "C",
			"E", "R%", "H%", "T"},
	}
	kinds := workload.Kinds()
	presets := gen.PresetNames()
	groups := make([][][]string, len(kinds)*len(presets))
	if err := runCells(len(groups), func(i int) error {
		kind, name := kinds[i/len(presets)], presets[i%len(presets)]
		w := o.spec(kind)
		d, err := o.load(name)
		if err != nil {
			return err
		}
		for _, mk := range []func(workload.Spec, int) core.Config{core.DGL, core.TSOTA, core.GNNLab} {
			cfg := o.apply(mk(w, 2))
			if cfg.Design == core.DesignGNNLab {
				cfg.ForceSamplers = 1
			}
			rep, err := core.Run(d, cfg)
			if err != nil {
				return err
			}
			if rep.OOM {
				groups[i] = append(groups[i], []string{kind.String(), name, cfg.Name, "OOM", "", "", "", "", "", "", ""})
				continue
			}
			groups[i] = append(groups[i], []string{kind.String(), name, cfg.Name,
				secs(rep.SampleTotal), secs(rep.SampleG), secs(rep.SampleM), secs(rep.SampleC),
				secs(rep.ExtractTot), pct(rep.CacheRatio), pct(rep.HitRate), secs(rep.TrainTot)})
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, g := range groups {
		t.Rows = append(t.Rows, g...)
	}
	return t, nil
}

// Table6 reproduces the preprocessing-cost table for GCN over the four
// datasets: disk→DRAM, DRAM→GPU (topology and cache separately), and the
// PreSC#1 pre-sampling. A dataset whose configuration Run reports OOM
// (Table 4's cell) reads OOM in every row.
func Table6(o Options) (*Table, error) {
	o = o.withDefaults()
	w := o.spec(workload.GCN)
	t := &Table{
		ID:     "table6",
		Title:  "Preprocessing time (s) for GCN",
		Header: []string{"Step", "PR", "TW", "PA", "UK"},
	}
	order := []string{"Disk to DRAM (G & F)", "DRAM to GPU (G & $)", "  Load graph topology", "  Load feature cache", "Pre-sampling (PreSC#1)"}
	presets := gen.PresetNames()
	cols := make([][]string, len(presets))
	if err := runCells(len(presets), func(i int) error {
		d, err := o.load(presets[i])
		if err != nil {
			return err
		}
		cfg := o.apply(core.GNNLab(w, o.NumGPUs))
		p, err := core.Preprocess(d, cfg)
		if errors.Is(err, device.ErrOutOfMemory) {
			cols[i] = []string{"OOM", "OOM", "OOM", "OOM", "OOM"}
			return nil
		}
		if err != nil {
			return err
		}
		cols[i] = []string{secs(p.DiskToDRAM), secs(p.DRAMToGPU()), secs(p.LoadTopology), secs(p.LoadCache), secs(p.PreSample)}
		return nil
	}); err != nil {
		return nil, err
	}
	for si, step := range order {
		row := []string{step}
		for _, col := range cols {
			row = append(row, col[si])
		}
		t.AddRow(row...)
	}
	return t, nil
}
