package experiments

import (
	"fmt"

	"gnnlab/internal/cache"
	"gnnlab/internal/device"
	"gnnlab/internal/gen"
	"gnnlab/internal/sampling"
)

// policyEval bundles a measured footprint with the rankings of each policy
// so hit rates and transfer volumes can be evaluated analytically at any
// cache ratio — how the §3/§6 cache figures are produced.
type policyEval struct {
	d        *gen.Dataset
	fp       *cache.Footprint
	rankings map[string][]int32
	order    []string
}

// evalPolicies loads preset, measures o.Epochs epochs of the Sample stage
// and builds the requested policy rankings. prescKs lists the PreSC#K
// variants wanted. The footprint replay and the PreSC pre-sampling runs
// use the Options' worker pool, and the independent ranking builds run
// concurrently too; each build writes only its own slot, so the result is
// deterministic.
func (o Options) evalPolicies(preset string, alg sampling.Algorithm, prescKs []int) (*policyEval, error) {
	d, err := o.load(preset)
	if err != nil {
		return nil, err
	}
	pe := &policyEval{
		d:        d,
		fp:       cache.CollectFootprint(d.Graph, alg, d.TrainSet, o.batchSize(), o.Epochs, o.Seed),
		rankings: map[string][]int32{},
		order:    []string{"Random", "Degree"},
	}
	base := cache.RankSpec{Graph: d.Graph, Alg: alg, TrainSet: d.TrainSet, BatchSize: o.batchSize(), Seed: o.Seed}
	specs := []cache.RankSpec{base, base}
	specs[0].Policy, specs[1].Policy = cache.PolicyRandom, cache.PolicyDegree
	for _, k := range prescKs {
		s := base
		s.Policy, s.PreSCK = cache.PolicyPreSC, k
		specs = append(specs, s)
		pe.order = append(pe.order, fmt.Sprintf("PreSC#%d", k))
	}
	pe.order = append(pe.order, "Optimal")
	ranks := make([][]int32, len(pe.order))
	if err := runCells(len(ranks), func(i int) error {
		if i == len(specs) {
			// The oracle ranks the footprint just measured: the same
			// replay cache.Rank would run for PolicyOptimal.
			ranks[i] = pe.fp.OptimalHotness().Rank()
			return nil
		}
		r, err := cache.Rank(specs[i])
		ranks[i] = r.Hotness.Rank()
		return err
	}); err != nil {
		return nil, err
	}
	for i, name := range pe.order {
		pe.rankings[name] = ranks[i]
	}
	return pe, nil
}

// slots converts a cache ratio to a slot count.
func (pe *policyEval) slots(ratio float64) int {
	return int(ratio * float64(pe.d.NumVertices()))
}

// perEpochBytes returns the per-epoch transferred bytes for a policy at a
// ratio, under a given per-vertex feature size.
func (pe *policyEval) perEpochBytes(name string, ratio float64, vfb int64) int64 {
	total := pe.fp.TransferredBytes(pe.rankings[name], pe.slots(ratio), vfb)
	return total / int64(pe.fp.Epochs)
}

// Figure4a reproduces §3's capacity analysis: cache hit rate and Extract
// time per epoch versus cache ratio on PA under the degree-based policy,
// marking the time-sharing (7%) and space-sharing (21%) operating points.
func Figure4a(o Options) (*Table, error) {
	o = o.withDefaults()
	pe, err := o.evalPolicies(gen.PresetPA, sampling.ForGCN(), nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "figure4a",
		Title:  "PA: hit rate and Extract time vs cache ratio (Degree policy)",
		Header: []string{"Cache ratio", "Hit rate", "Extract time/epoch (s)"},
		Notes: []string{
			"time sharing limits the ratio to ~7%, space sharing reaches ~21% (vertical lines in the paper)",
		},
	}
	cost := device.DefaultCostModel()
	vfb := int64(pe.d.FeatureDim) * 4
	for _, ratio := range []float64{0, 0.02, 0.05, 0.07, 0.10, 0.15, 0.21, 0.30} {
		slots := pe.slots(ratio)
		hr := pe.fp.HitRate(pe.rankings["Degree"], slots)
		miss := pe.perEpochBytes("Degree", ratio, vfb)
		hit := pe.fp.TotalExtractions/int64(pe.fp.Epochs)*vfb - miss
		et := cost.ExtractTime(hit, miss, 1)
		t.AddRow(pct(ratio), pct(hr), secs(et))
	}
	return t, nil
}

// Figure4b reproduces the feature-dimension stress test: with a fixed
// cache byte budget, hit rate falls and transferred volume rises as the
// feature dimension grows.
func Figure4b(o Options) (*Table, error) {
	o = o.withDefaults()
	pe, err := o.evalPolicies(gen.PresetPA, sampling.ForGCN(), nil)
	if err != nil {
		return nil, err
	}
	// 5 GB of cache in the paper → 50 MB at 1/100 scale, divided by the
	// experiment scale.
	budget := int64(50<<20) / int64(o.Scale)
	t := &Table{
		ID:     "figure4b",
		Title:  "PA: hit rate and transferred data vs feature dimension (fixed cache bytes, Degree policy)",
		Header: []string{"Feature dim", "Cache ratio", "Hit rate", "Transferred/epoch"},
	}
	for _, dim := range []int{128, 256, 512, 768} {
		vfb := int64(dim) * 4
		slots := cache.SlotsFor(budget, vfb, pe.d.NumVertices())
		ratio := cache.RatioFor(slots, pe.d.NumVertices())
		hr := pe.fp.HitRate(pe.rankings["Degree"], slots)
		moved := pe.fp.TransferredBytes(pe.rankings["Degree"], slots, vfb) / int64(pe.fp.Epochs)
		t.AddRow(fmt.Sprintf("%d", dim), pct(ratio), pct(hr), megabytes(moved))
	}
	return t, nil
}

// Figure5 reproduces the §3 efficiency analysis: transferred data of the
// Degree policy versus the Optimal policy across cache ratios, on (a) PA
// with uniform sampling and (b) TW with weighted sampling.
func Figure5(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:     "figure5",
		Title:  "Transferred data per epoch: Degree vs Optimal",
		Header: []string{"Graph+alg", "Cache ratio", "Degree", "Optimal", "Degree/Optimal"},
	}
	cases := []struct {
		label  string
		preset string
		alg    sampling.Algorithm
	}{
		{"PA 3-hop uniform", gen.PresetPA, sampling.ForGCN()},
		{"TW 3-hop weighted", gen.PresetTW, sampling.ForGCNWeighted()},
	}
	groups := make([][][]string, len(cases))
	if err := runCells(len(cases), func(i int) error {
		c := cases[i]
		pe, err := o.evalPolicies(c.preset, c.alg, nil)
		if err != nil {
			return err
		}
		vfb := int64(pe.d.FeatureDim) * 4
		for _, ratio := range []float64{0.03, 0.07, 0.10, 0.20, 0.30} {
			deg := pe.perEpochBytes("Degree", ratio, vfb)
			opt := pe.perEpochBytes("Optimal", ratio, vfb)
			rel := "inf"
			if opt > 0 {
				rel = fmt.Sprintf("%.1fx", float64(deg)/float64(opt))
			}
			groups[i] = append(groups[i], []string{c.label, pct(ratio), megabytes(deg), megabytes(opt), rel})
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

// Figure10 reproduces the policy comparison: cache hit rate of Random,
// Degree, PreSC#1 and Optimal at a 10% cache ratio, for three sampling
// algorithms over the four graphs.
func Figure10(o Options) (*Table, error) {
	o = o.withDefaults()
	algs := []struct {
		name string
		mk   func() sampling.Algorithm
	}{
		{"3-hop random", func() sampling.Algorithm { return sampling.ForGCN() }},
		{"Random walks", func() sampling.Algorithm { return sampling.ForPinSAGE() }},
		{"3-hop weighted", func() sampling.Algorithm { return sampling.ForGCNWeighted() }},
	}
	t := &Table{
		ID:     "figure10",
		Title:  "Cache hit rate at 10% cache ratio",
		Header: []string{"Algorithm", "Dataset", "Random", "Degree", "PreSC#1", "Optimal"},
	}
	presets := gen.PresetNames()
	rows := make([][]string, len(algs)*len(presets))
	if err := runCells(len(rows), func(i int) error {
		a, name := algs[i/len(presets)], presets[i%len(presets)]
		pe, err := o.evalPolicies(name, a.mk(), []int{1})
		if err != nil {
			return err
		}
		slots := pe.slots(0.10)
		rows[i] = []string{a.name, name,
			pct(pe.fp.HitRate(pe.rankings["Random"], slots)),
			pct(pe.fp.HitRate(pe.rankings["Degree"], slots)),
			pct(pe.fp.HitRate(pe.rankings["PreSC#1"], slots)),
			pct(pe.fp.HitRate(pe.rankings["Optimal"], slots))}
		return nil
	}); err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// Figure11a reproduces the PreSC#K study on the hardest case (TW with
// weighted sampling): hit rate vs cache ratio for every policy including
// deeper pre-sampling.
func Figure11a(o Options) (*Table, error) {
	o = o.withDefaults()
	pe, err := o.evalPolicies(gen.PresetTW, sampling.ForGCNWeighted(), []int{1, 2, 3})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "figure11a",
		Title:  "TW weighted: hit rate vs cache ratio by policy",
		Header: append([]string{"Cache ratio"}, pe.order...),
	}
	for _, ratio := range []float64{0.05, 0.10, 0.20, 0.30} {
		row := []string{pct(ratio)}
		for _, name := range pe.order {
			row = append(row, pct(pe.fp.HitRate(pe.rankings[name], pe.slots(ratio))))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure11b reproduces the cache-ratio sweep on PA with 3-hop random
// sampling: PreSC reaches a high hit rate at a very small ratio.
func Figure11b(o Options) (*Table, error) {
	o = o.withDefaults()
	pe, err := o.evalPolicies(gen.PresetPA, sampling.ForGCN(), []int{1})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "figure11b",
		Title:  "PA 3-hop random: hit rate vs cache ratio by policy",
		Header: append([]string{"Cache ratio"}, pe.order...),
	}
	for _, ratio := range []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.30} {
		row := []string{pct(ratio)}
		for _, name := range pe.order {
			row = append(row, pct(pe.fp.HitRate(pe.rankings[name], pe.slots(ratio))))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure11c reproduces the feature-dimension sweep on PA with a fixed 5 GB
// (scaled) cache: transferred data per mini-batch by policy.
func Figure11c(o Options) (*Table, error) {
	o = o.withDefaults()
	pe, err := o.evalPolicies(gen.PresetPA, sampling.ForGCN(), []int{1})
	if err != nil {
		return nil, err
	}
	budget := int64(50<<20) / int64(o.Scale)
	t := &Table{
		ID:     "figure11c",
		Title:  "PA: transferred data per epoch vs feature dimension (fixed cache bytes)",
		Header: append([]string{"Feature dim", "Cache ratio"}, pe.order...),
	}
	for _, dim := range []int{100, 300, 500, 700, 900} {
		vfb := int64(dim) * 4
		slots := cache.SlotsFor(budget, vfb, pe.d.NumVertices())
		row := []string{fmt.Sprintf("%d", dim), pct(cache.RatioFor(slots, pe.d.NumVertices()))}
		for _, name := range pe.order {
			moved := pe.fp.TransferredBytes(pe.rankings[name], slots, vfb) / int64(pe.fp.Epochs)
			row = append(row, megabytes(moved))
		}
		t.AddRow(row...)
	}
	return t, nil
}
