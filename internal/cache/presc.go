package cache

import (
	"gnnlab/internal/graph"
	"gnnlab/internal/sampling"
)

// PreSCResult is the outcome of pre-sampling: the hotness metric plus the
// work performed, which Table 6 charges as preprocessing cost.
type PreSCResult struct {
	Hotness Hotness
	// VisitCounts[v] is the total number of times v was sampled across
	// the K pre-sampling epochs (hotness is the per-epoch average, which
	// ranks identically).
	VisitCounts []int64
	Epochs      int
	// SampledEdges and ScannedEdges aggregate sampler work for costing.
	SampledEdges int64
	ScannedEdges int64
}

// PreSC runs K epochs of the Sample stage alone — with the real sampling
// algorithm, graph and training set — and returns the average visit count
// as the hotness metric h_v (§6.3, PreSC#K). The pre-sampling epochs use
// the same shuffled mini-batch structure as training so the footprint is
// representative. Pre-sampling runs on the parallel measurement engine:
// it sums the K epoch footprints of CollectEpochFootprints, so the result
// is bit-identical at any GOMAXPROCS.
func PreSC(g graph.View, alg sampling.Algorithm, trainSet []int32, batchSize, k int, seed uint64) PreSCResult {
	if k <= 0 {
		panic("cache: PreSC with non-positive K")
	}
	epochs := CollectEpochFootprints(g, alg, trainSet, batchSize, k, seed^0x9E3779B97F4A7C15)
	total := epochs[0]
	for _, ef := range epochs[1:] {
		total.add(ef)
	}
	score := make([]float64, len(total.Visits))
	inv := 1 / float64(k)
	for v, c := range total.Visits {
		score[v] = float64(c) * inv
	}
	return PreSCResult{
		Hotness:      Hotness{Score: score},
		VisitCounts:  total.Visits,
		Epochs:       k,
		SampledEdges: total.SampledEdges,
		ScannedEdges: total.ScannedEdges,
	}
}
