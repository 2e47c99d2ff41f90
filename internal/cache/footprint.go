package cache

import (
	"gnnlab/internal/graph"
	"gnnlab/internal/par"
	"gnnlab/internal/sampling"
)

// Footprint records what a run of the Sample stage touched: per-vertex
// extraction counts (how many mini-batches needed each vertex's feature).
// It is the basis for the Optimal oracle and for analytic hit-rate
// evaluation (Figs 4, 5, 10, 11).
type Footprint struct {
	// Extractions[v]: number of mini-batches whose unique input set
	// contained v; Σ_v Extractions[v] = total feature rows extracted.
	Extractions []int64
	// TotalExtractions across the run.
	TotalExtractions int64
	Epochs           int
	SampledEdges     int64
	ScannedEdges     int64
}

// CollectFootprintN runs `epochs` epochs of the Sample stage on a pool of
// `workers` (0 = GOMAXPROCS, 1 = serial) and records the footprint.
// Deterministic in (g, alg, trainSet, batchSize, seed) — the replay
// samples the same sampling.PlanEpochs cells as measure.Collect, so with
// the same seed it reproduces a measured run's footprint exactly (the
// Optimal oracle's contract, §3 footnote 4). Per-worker footprints are
// merged at the end; all absorbed quantities are commutative sums, so
// the result is bit-identical at any worker count.
func CollectFootprintN(g graph.View, alg sampling.Algorithm, trainSet []int32, batchSize, epochs int, seed uint64, workers int) *Footprint {
	n := g.NumVertices()
	cells := sampling.PlanEpochs(trainSet, batchSize, epochs, seed)
	accs := make([]*Footprint, par.Pool(workers, len(cells)))
	sampling.ReplayEpochs(g, alg, cells, workers, func(worker int, c sampling.EpochCell, alg sampling.Algorithm) {
		acc := accs[worker]
		if acc == nil {
			acc = &Footprint{Extractions: make([]int64, n)}
			accs[worker] = acc
		}
		s := alg.Sample(g, c.Seeds, c.R)
		acc.SampledEdges += s.SampledEdges
		acc.ScannedEdges += s.ScannedEdges
		acc.TotalExtractions += int64(len(s.Input))
		for _, v := range s.Input {
			acc.Extractions[v]++
		}
	})
	fp := &Footprint{Extractions: make([]int64, n), Epochs: epochs}
	for _, acc := range accs {
		if acc == nil {
			continue
		}
		fp.SampledEdges += acc.SampledEdges
		fp.ScannedEdges += acc.ScannedEdges
		fp.TotalExtractions += acc.TotalExtractions
		for v, c := range acc.Extractions {
			fp.Extractions[v] += c
		}
	}
	return fp
}

// OptimalHotness returns the oracle metric: rank by actual extraction
// count in the measured run.
func (fp *Footprint) OptimalHotness() Hotness {
	return CountHotness(fp.Extractions)
}

// HitRate evaluates analytically the cache hit rate that caching the first
// `slots` vertices of ranking would have achieved on this footprint.
func (fp *Footprint) HitRate(ranking []int32, slots int) float64 {
	if fp.TotalExtractions == 0 {
		return 0
	}
	var hits int64
	for i := 0; i < slots && i < len(ranking); i++ {
		hits += fp.Extractions[ranking[i]]
	}
	return float64(hits) / float64(fp.TotalExtractions)
}

// TransferredBytes evaluates the host→GPU feature traffic the footprint
// implies under a given cache: every extraction of an uncached vertex
// moves one feature row.
func (fp *Footprint) TransferredBytes(ranking []int32, slots int, vertexFeatureBytes int64) int64 {
	var hits int64
	for i := 0; i < slots && i < len(ranking); i++ {
		hits += fp.Extractions[ranking[i]]
	}
	return (fp.TotalExtractions - hits) * vertexFeatureBytes
}

// EpochFootprint is the footprint of a single epoch, used by the
// epoch-to-epoch similarity analysis (Table 2) and, summed over K
// epochs, by PreSC#K.
type EpochFootprint struct {
	// Visits[v]: sampled occurrences of v in the epoch.
	Visits       []int64
	SampledEdges int64
	ScannedEdges int64
}

// absorb adds one sample's visits and sampler work to ef. Every sampled
// occurrence counts (seeds plus every sampled edge's neighbor), not just
// the unique input set: revisit frequency within a batch is hotness
// signal too.
func (ef *EpochFootprint) absorb(s *sampling.Sample) {
	ef.SampledEdges += s.SampledEdges
	ef.ScannedEdges += s.ScannedEdges
	for _, v := range s.Seeds {
		ef.Visits[v]++
	}
	for _, nbr := range s.AdjNbr {
		ef.Visits[s.Input[nbr]]++
	}
}

// CollectEpochFootprintsN runs `epochs` epochs and returns each epoch's
// footprint separately, replaying the same cells as CollectFootprintN on
// a pool of `workers` (0 = GOMAXPROCS, 1 = serial). Visits and edge
// counts are commutative integer sums, so the result is bit-identical at
// any worker count.
func CollectEpochFootprintsN(g graph.View, alg sampling.Algorithm, trainSet []int32, batchSize, epochs int, seed uint64, workers int) []EpochFootprint {
	n := g.NumVertices()
	cells := sampling.PlanEpochs(trainSet, batchSize, epochs, seed)
	// accs[worker][epoch] is that worker's share of one epoch, allocated
	// on its first sample there.
	accs := make([][]EpochFootprint, par.Pool(workers, len(cells)))
	sampling.ReplayEpochs(g, alg, cells, workers, func(worker int, c sampling.EpochCell, alg sampling.Algorithm) {
		if accs[worker] == nil {
			accs[worker] = make([]EpochFootprint, epochs)
		}
		ef := &accs[worker][c.Epoch]
		if ef.Visits == nil {
			ef.Visits = make([]int64, n)
		}
		ef.absorb(alg.Sample(g, c.Seeds, c.R))
	})
	out := make([]EpochFootprint, epochs)
	for e := range out {
		out[e].Visits = make([]int64, n)
		for _, acc := range accs {
			if acc != nil {
				out[e].add(acc[e])
			}
		}
	}
	return out
}

// add merges another share of the same epoch into ef.
func (ef *EpochFootprint) add(other EpochFootprint) {
	ef.SampledEdges += other.SampledEdges
	ef.ScannedEdges += other.ScannedEdges
	for v, c := range other.Visits {
		ef.Visits[v] += c
	}
}

// Similarity computes the paper's §6.2 metric between epochs i and j:
//
//	Σ_{v ∈ T_i ∩ T_j} min(f_i(v), f_j(v)) / Σ_{v ∈ T_j} f_j(v)
//
// where T_i, T_j are the sets of top `topFraction` most-visited vertices
// in each epoch and f the visit frequencies.
func Similarity(fi, fj EpochFootprint, topFraction float64) float64 {
	ti := topSet(fi.Visits, topFraction)
	tj := topSet(fj.Visits, topFraction)
	var num, den int64
	for v := range tj {
		den += fj.Visits[v]
	}
	if den == 0 {
		return 0
	}
	for v := range ti {
		if _, ok := tj[v]; !ok {
			continue
		}
		m := fi.Visits[v]
		if fj.Visits[v] < m {
			m = fj.Visits[v]
		}
		num += m
	}
	return float64(num) / float64(den)
}

// topSet returns the set of the top `fraction` vertices by visit count
// among vertices visited at least once, ties broken by ascending ID.
func topSet(visits []int64, fraction float64) map[int32]struct{} {
	ids := make([]int32, 0, len(visits))
	for v, c := range visits {
		if c > 0 {
			ids = append(ids, int32(v))
		}
	}
	k := int(fraction * float64(len(visits)))
	// Visited counts are positive, so ^count ascends as the count falls.
	top := graph.RadixTop(ids, k, func(ids []int32, keys []uint64) {
		for i, v := range ids {
			keys[i] = ^uint64(visits[v])
		}
	})
	set := make(map[int32]struct{}, len(top))
	for _, v := range top {
		set[v] = struct{}{}
	}
	return set
}
