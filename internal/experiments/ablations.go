package experiments

import (
	"fmt"

	"gnnlab/internal/cache"
	"gnnlab/internal/core"
	"gnnlab/internal/gen"
	"gnnlab/internal/sampling"
	"gnnlab/internal/workload"
)

// Ablations: experiments beyond the paper's figures that isolate the
// design choices DESIGN.md calls out. They are registered alongside the
// paper experiments under "ablation-*" IDs.

// AblationAGL quantifies the §3 discussion: the AGL-style batch-mode
// design pays a topology + cache reload every epoch, while GNNLab's
// factored design pays it once per job.
func AblationAGL(o Options) (*Table, error) {
	o = o.withDefaults()
	w := o.spec(workload.GCN)
	t := &Table{
		ID:     "ablation-agl",
		Title:  "GNNLab vs AGL-style batch mode: per-epoch role flipping (GCN)",
		Header: []string{"Dataset", "GNNLab epoch (s)", "AGL epoch (s)", "AGL/GNNLab"},
		Notes:  []string{"AGL reloads topology and feature cache every epoch (§3 Discussion)"},
	}
	for _, name := range gen.PresetNames() {
		d, err := o.load(name)
		if err != nil {
			return nil, err
		}
		gl, err := core.Run(d, o.apply(core.GNNLab(w, o.NumGPUs)))
		if err != nil {
			return nil, err
		}
		agl, err := core.Run(d, o.apply(core.AGL(w, o.NumGPUs)))
		if err != nil {
			return nil, err
		}
		ratio := "-"
		if !gl.OOM && !agl.OOM && gl.EpochTime > 0 {
			ratio = fmt.Sprintf("%.1fx", agl.EpochTime/gl.EpochTime)
		}
		t.AddRow(name,
			cellOrOOM(gl, func(r *core.Report) string { return secs(r.EpochTime) }),
			cellOrOOM(agl, func(r *core.Report) string { return secs(r.EpochTime) }),
			ratio)
	}
	return t, nil
}

// AblationPipeline isolates two executor design choices: Extract/Train
// pipelining inside a Trainer (§5.2) and synchronous vs asynchronous
// (bounded-staleness) gradient updates.
func AblationPipeline(o Options) (*Table, error) {
	o = o.withDefaults()
	d, err := o.load(gen.PresetPA)
	if err != nil {
		return nil, err
	}
	w := o.spec(workload.GCN)
	t := &Table{
		ID:     "ablation-pipeline",
		Title:  fmt.Sprintf("GNNLab GCN on PA (%d GPUs): pipelining and update-mode ablation", o.NumGPUs),
		Header: []string{"Pipelined", "Updates", "Epoch (s)"},
	}
	for _, pipelined := range []bool{true, false} {
		for _, sync := range []bool{true, false} {
			cfg := o.apply(core.GNNLab(w, o.NumGPUs))
			cfg.Pipelined = pipelined
			cfg.Sync = sync
			rep, err := core.Run(d, cfg)
			if err != nil {
				return nil, err
			}
			mode := "async"
			if sync {
				mode = "sync"
			}
			t.AddRow(fmt.Sprintf("%v", pipelined), mode,
				cellOrOOM(rep, func(r *core.Report) string { return secs(r.EpochTime) }))
		}
	}
	return t, nil
}

// AblationSubgraph tests the §8 prediction for subgraph-based sampling
// algorithms (ClusterGCN, GraphSAINT): their access footprints are more
// uniform, so PreSC's edge over simpler policies shrinks — but a larger
// cache (which the factored design provides) still helps.
func AblationSubgraph(o Options) (*Table, error) {
	o = o.withDefaults()
	// Subgraph samples over the full-size presets are induced subgraphs
	// of tens of thousands of vertices per mini-batch; the ablation runs
	// at a further-reduced scale (noted in the table) to stay tractable
	// — the comparison is between algorithms at equal scale, so the
	// conclusion is unaffected.
	if o.Scale < 4 {
		o.Scale = 4
	}
	d, err := o.load(gen.PresetPA)
	if err != nil {
		return nil, err
	}
	algs := []struct {
		name string
		alg  sampling.Algorithm
	}{
		{"3-hop random", sampling.ForGCN()},
		{"ClusterGCN", sampling.NewClusterGCN(d.NumVertices()/1000+8, o.Seed)},
		{"SAINT-node", sampling.NewSAINTNode(40 * o.batchSize())},
		{"SAINT-edge", sampling.NewSAINTEdge(60 * o.batchSize())},
	}
	t := &Table{
		ID:     "ablation-subgraph",
		Title:  fmt.Sprintf("Subgraph sampling on %s: epoch similarity and hit rates at 10%% cache", d.Name),
		Header: []string{"Algorithm", "Epoch similarity", "Random", "Degree", "PreSC#1", "Optimal", "PreSC/Optimal"},
	}
	slots := int(0.10 * float64(d.NumVertices()))
	for _, a := range algs {
		fps := cache.CollectEpochFootprints(d.Graph, a.alg, d.TrainSet, o.batchSize(), 2, o.Seed)
		sim := cache.Similarity(fps[0], fps[1], 0.10)

		fp := cache.CollectFootprint(d.Graph, a.alg, d.TrainSet, o.batchSize(), o.Epochs, o.Seed)
		spec := cache.RankSpec{Graph: d.Graph, Alg: a.alg, TrainSet: d.TrainSet, BatchSize: o.batchSize(), Seed: o.Seed, PreSCK: 1}
		var hr [3]float64
		for i, p := range []cache.PolicyKind{cache.PolicyRandom, cache.PolicyDegree, cache.PolicyPreSC} {
			spec.Policy = p
			r, err := cache.Rank(spec)
			if err != nil {
				return nil, err
			}
			hr[i] = fp.HitRate(r.Hotness.RankTop(slots), slots)
		}
		optHR := fp.HitRate(fp.OptimalHotness().RankTop(slots), slots)
		rel := "-"
		if optHR > 0 {
			rel = fmt.Sprintf("%.2f", hr[2]/optHR)
		}
		t.AddRow(a.name, pct(sim), pct(hr[0]), pct(hr[1]), pct(hr[2]), pct(optHR), rel)
	}
	return t, nil
}

// AblationPartition exercises the §5.2 future-work extension: partitioned
// sampling lets a Sampler handle topologies exceeding its GPU memory by
// cycling partitions, at the cost of per-hop reloads.
func AblationPartition(o Options) (*Table, error) {
	o = o.withDefaults()
	d, err := o.load(gen.PresetUK)
	if err != nil {
		return nil, err
	}
	w := o.spec(workload.GCN)
	t := &Table{
		ID:     "ablation-partition",
		Title:  "Partitioned sampling on UK (GCN): shrinking Sampler GPU memory",
		Header: []string{"GPU memory", "Plain GNNLab", "Partitioned", "Partitions"},
	}
	base := o.apply(core.GNNLab(w, o.NumGPUs)).GPUMemory
	for _, frac := range []float64{1.0, 0.6, 0.4, 0.25} {
		plain := o.apply(core.GNNLab(w, o.NumGPUs))
		plain.GPUMemory = int64(float64(base) * frac)
		repPlain, err := core.Run(d, plain)
		if err != nil {
			return nil, err
		}
		part := plain
		part.PartitionedSampling = true
		repPart, err := core.Run(d, part)
		if err != nil {
			return nil, err
		}
		parts := "-"
		if !repPart.OOM {
			parts = fmt.Sprintf("%d", repPart.SamplerPartitions)
		}
		t.AddRow(megabytes(plain.GPUMemory),
			cellOrOOM(repPlain, func(r *core.Report) string { return secs(r.EpochTime) }),
			cellOrOOM(repPart, func(r *core.Report) string { return secs(r.EpochTime) }),
			parts)
	}
	return t, nil
}
