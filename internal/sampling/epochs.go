package sampling

import (
	"fmt"

	"gnnlab/internal/graph"
	"gnnlab/internal/par"
	"gnnlab/internal/rng"
)

// EpochCell is one (epoch, batch) unit of sampling work. Its RNG stream is
// derived on the coordinating goroutine — epoch-keyed Split, then
// batch-keyed SplitN — so the sampled stream is a pure function of
// (seed, epoch, batch), independent of worker count and scheduling. The
// measurement engine (internal/measure) and the cache-policy replays
// (internal/cache) sample through ReplayEpochs under this rule. The live
// training pipeline (internal/train) shares only the batches: it derives
// each batch's stream from its own (seed, epoch, batch index) key.
type EpochCell struct {
	Epoch int
	Batch int
	Seeds []int32
	R     *rng.Rand
}

// PlanEpochs derives every epoch's shuffled mini-batches and per-batch RNG
// streams from seed, serially, in (epoch, batch) order. Each epoch has
// NumBatches(len(trainSet), batchSize) cells.
func PlanEpochs(trainSet []int32, batchSize, epochs int, seed uint64) []EpochCell {
	r := rng.New(seed)
	cells := make([]EpochCell, 0, epochs*NumBatches(len(trainSet), batchSize))
	for epoch := 0; epoch < epochs; epoch++ {
		er := r.Split(uint64(epoch))
		batches := Batches(trainSet, batchSize, er)
		rands := er.SplitN(len(batches))
		for b, batch := range batches {
			cells = append(cells, EpochCell{Epoch: epoch, Batch: b, Seeds: batch, R: rands[b]})
		}
	}
	return cells
}

// ReplayEpochs samples every cell with alg on par.Pool(len(cells))
// lanes of the row pool. It prepares alg's per-graph tables once and
// gives each worker one ClonePooled instance; visit(worker, c, clone)
// runs on that worker and samples c with the clone, so a sample is
// borrowed until the worker's next cell. visit may write only c's own
// output slots and state private to worker. The returned stats sum the
// clones' arenas. An alg that does not implement Cloner has no private
// instances to hand out, so it runs serially; the sampled stream is the
// same at any GOMAXPROCS.
func ReplayEpochs(g graph.View, alg Algorithm, cells []EpochCell, visit func(worker int, c EpochCell, alg Algorithm)) ScratchStats {
	Prepare(alg, g)
	algs := make([]Algorithm, par.Pool(len(cells)))
	for i := range algs {
		algs[i] = ClonePooled(alg)
	}
	if _, ok := alg.(Cloner); ok {
		par.ForEach(len(cells), func(worker, i int) {
			visit(worker, cells[i], algs[worker])
		})
	} else {
		algs = algs[:min(len(algs), 1)]
		for _, c := range cells {
			visit(0, c, alg)
		}
	}
	var st ScratchStats
	for _, a := range algs {
		if s, ok := ScratchStatsOf(a); ok {
			st.Samples += s.Samples
			st.Reuses += s.Reuses
			st.Grows += s.Grows
			st.RowCacheHits += s.RowCacheHits
			st.RowCacheMisses += s.RowCacheMisses
		}
	}
	return st
}

// Fingerprint returns a content identity for alg. Unlike Name, it folds in
// every parameter that changes the sampled stream, so equal fingerprints
// mean identical sampling work given the same (graph, training set,
// batch size, seed). The measurement store keys on it. Unknown algorithm
// types fall back to Name; custom algorithms that want store reuse should
// make Name parameter-complete.
func Fingerprint(alg Algorithm) string {
	switch a := alg.(type) {
	case *KHop:
		return fmt.Sprintf("khop%v/%s", a.Fanouts, a.Method)
	case *WeightedKHop:
		return fmt.Sprintf("weighted-khop%v", a.Fanouts)
	case *RandomWalk:
		return fmt.Sprintf("random-walk(%d,%d,%d,%d)", a.Layers, a.NumPaths, a.WalkLength, a.NumNeighbors)
	case *ClusterGCN:
		return fmt.Sprintf("cluster-gcn(%d,%d)", a.NumClusters, a.Seed)
	case *SAINTNode:
		return fmt.Sprintf("saint-node(%d)", a.Budget)
	case *SAINTEdge:
		return fmt.Sprintf("saint-edge(%d)", a.EdgeBudget)
	default:
		return alg.Name()
	}
}
