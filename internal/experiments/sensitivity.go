package experiments

import (
	"fmt"

	"gnnlab/internal/cache"
	"gnnlab/internal/core"
	"gnnlab/internal/device"
	"gnnlab/internal/gen"
	"gnnlab/internal/sampling"
	"gnnlab/internal/workload"
)

// Sensitivity ablations: how the headline results depend on properties of
// the synthetic substrate, probing the robustness claims rather than the
// paper's own figures.

// AblationCoupling sweeps the citation generator's out-degree ↔
// citation-rank coupling. The Degree policy's hit rate tracks the coupling
// (it *is* the coupling), while PreSC is invariant — quantifying why the
// degree heuristic is graph-dependent and pre-sampling is not (§6).
func AblationCoupling(o Options) (*Table, error) {
	o = o.withDefaults()
	base, err := gen.PresetConfig(gen.PresetPA)
	if err != nil {
		return nil, err
	}
	base = gen.ScaleDown(base, o.Scale)
	t := &Table{
		ID:     "ablation-coupling",
		Title:  "Citation graph: Degree vs PreSC hit rate (10% cache) as out-degree couples to popularity",
		Header: []string{"Coupling noise", "Degree", "PreSC#1", "Optimal"},
		Notes:  []string{"smaller noise = reference-list length tracks citation count more tightly"},
	}
	for _, coupling := range []float64{0.05, 0.3, 1.0, 2.5, 10} {
		cfg := base
		cfg.Name = fmt.Sprintf("%s/c%.2f", base.Name, coupling)
		cfg.DegreeCoupling = coupling
		d, err := gen.Load(cfg)
		if err != nil {
			return nil, err
		}
		alg := sampling.ForGCN()
		fp := cache.CollectFootprint(d.Graph, alg, d.TrainSet, o.batchSize(), o.Epochs, o.Seed)
		slots := int(0.10 * float64(d.NumVertices()))
		spec := cache.RankSpec{Graph: d.Graph, Alg: alg, TrainSet: d.TrainSet, BatchSize: o.batchSize(), Seed: o.Seed, PreSCK: 1}
		row := []string{fmt.Sprintf("%.2f", coupling)}
		for _, p := range []cache.PolicyKind{cache.PolicyDegree, cache.PolicyPreSC} {
			spec.Policy = p
			r, err := cache.Rank(spec)
			if err != nil {
				return nil, err
			}
			row = append(row, pct(fp.HitRate(r.Hotness.RankTop(slots), slots)))
		}
		t.AddRow(append(row, pct(fp.HitRate(fp.OptimalHotness().RankTop(slots), slots)))...)
	}
	return t, nil
}

// AblationHostBandwidth sweeps the shared host-gather bandwidth. The
// uncached DGL baseline's epoch time is dominated by it; GNNLab's PreSC
// cache insulates the epoch almost entirely — the mechanism behind Table 4
// and Figure 14 isolated to a single knob.
func AblationHostBandwidth(o Options) (*Table, error) {
	o = o.withDefaults()
	d, err := o.load(gen.PresetPA)
	if err != nil {
		return nil, err
	}
	w := o.spec(workload.GCN)
	t := &Table{
		ID:     "ablation-hostbw",
		Title:  fmt.Sprintf("GCN on PA (%d GPUs): epoch time vs host gather bandwidth", o.NumGPUs),
		Header: []string{"Host BW (x default)", "DGL", "GNNLab", "DGL/GNNLab"},
	}
	for _, factor := range []float64{0.5, 1, 2, 4} {
		cost := device.DefaultCostModel()
		cost.HostGatherBytesPerSec *= factor
		cost.HostGatherTotalBytesPerSec *= factor
		dglCfg := o.apply(core.DGL(w, o.NumGPUs))
		dglCfg.Cost = cost
		dglRep, err := core.Run(d, dglCfg)
		if err != nil {
			return nil, err
		}
		glCfg := o.apply(core.GNNLab(w, o.NumGPUs))
		glCfg.Cost = cost
		glRep, err := core.Run(d, glCfg)
		if err != nil {
			return nil, err
		}
		ratio := "-"
		if !dglRep.OOM && !glRep.OOM && glRep.EpochTime > 0 {
			ratio = fmt.Sprintf("%.1fx", dglRep.EpochTime/glRep.EpochTime)
		}
		t.AddRow(fmt.Sprintf("%.1fx", factor),
			cellOrOOM(dglRep, func(r *core.Report) string { return secs(r.EpochTime) }),
			cellOrOOM(glRep, func(r *core.Report) string { return secs(r.EpochTime) }),
			ratio)
	}
	return t, nil
}
