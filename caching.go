package gnnlab

import (
	"fmt"

	"gnnlab/internal/cache"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
)

// CachePolicy identifies a feature-caching policy (§6).
type CachePolicy = cache.PolicyKind

// The built-in caching policies.
const (
	PolicyRandom  = cache.PolicyRandom
	PolicyDegree  = cache.PolicyDegree
	PolicyPreSC   = cache.PolicyPreSC
	PolicyOptimal = cache.PolicyOptimal
)

// SamplingAlgorithm is a graph sampling scheme following §5.1's
// programming model: it maps a mini-batch of seed vertices to a
// deduplicated, locally-renumbered sample.
type SamplingAlgorithm = sampling.Algorithm

// Sample is the output of the Sample stage for one mini-batch.
type Sample = sampling.Sample

// Sampling algorithm constructors.
var (
	// NewKHopSampler returns k-hop uniform neighborhood sampling with
	// the given per-layer fanouts (Fisher–Yates variant).
	NewKHopSampler = func(fanouts []int) SamplingAlgorithm {
		return sampling.NewKHop(fanouts, sampling.FisherYates)
	}
	// NewWeightedKHopSampler returns k-hop weighted neighborhood
	// sampling (probability proportional to edge weight).
	NewWeightedKHopSampler = func(fanouts []int) SamplingAlgorithm {
		return sampling.NewWeightedKHop(fanouts)
	}
	// NewRandomWalkSampler returns PinSAGE-style random-walk
	// neighborhood selection.
	NewRandomWalkSampler = func(layers, numPaths, walkLength, numNeighbors int) SamplingAlgorithm {
		return sampling.NewRandomWalk(layers, numPaths, walkLength, numNeighbors)
	}
	// NewClusterGCNSampler returns the cluster-based subgraph sampler
	// (ClusterGCN), discussed in the paper's §8.
	NewClusterGCNSampler = func(numClusters int, seed uint64) SamplingAlgorithm {
		return sampling.NewClusterGCN(numClusters, seed)
	}
	// NewSAINTNodeSampler and NewSAINTEdgeSampler return GraphSAINT-style
	// induced-subgraph samplers.
	NewSAINTNodeSampler = func(budget int) SamplingAlgorithm { return sampling.NewSAINTNode(budget) }
	NewSAINTEdgeSampler = func(budget int) SamplingAlgorithm { return sampling.NewSAINTEdge(budget) }
)

// CacheEvaluation reports how a caching policy would perform on a real
// sampled footprint.
type CacheEvaluation struct {
	Policy           string
	CacheRatio       float64
	HitRate          float64
	TransferredBytes int64 // per epoch
}

// EvaluateCachePolicy measures `epochs` epochs of the Sample stage on d
// with alg and evaluates the named policy at the given cache ratio —
// the analysis behind the paper's Figures 4, 5, 10 and 11. PreSC runs
// PreSC#1; Optimal ranks by the measured epochs themselves.
func EvaluateCachePolicy(d *Dataset, alg SamplingAlgorithm, policy CachePolicy, ratio float64, batchSize, epochs int, seed uint64) (CacheEvaluation, error) {
	if alg == nil || batchSize <= 0 || epochs <= 0 || !(ratio >= 0 && ratio <= 1) {
		return CacheEvaluation{}, fmt.Errorf("gnnlab: need a sampler, a positive batch size and epoch count, and a cache ratio in [0, 1] (batch size %d, epochs %d, ratio %v)", batchSize, epochs, ratio)
	}
	fp := cache.CollectFootprintN(d.Graph, alg, d.TrainSet, batchSize, epochs, seed, 0)
	var hot cache.Hotness
	if policy == cache.PolicyOptimal {
		// The oracle ranks the footprint just measured, which is the
		// replay cache.Rank would run again.
		hot = fp.OptimalHotness()
	} else {
		r, err := cache.Rank(cache.RankSpec{Policy: policy, Graph: d.Graph, Alg: alg, TrainSet: d.TrainSet,
			BatchSize: batchSize, Seed: seed, PreSCK: 1})
		if err != nil {
			return CacheEvaluation{}, err
		}
		hot = r.Hotness
	}
	// Only the cached prefix of the ranking is ever consulted, so rank
	// top-`slots` (O(|V|) selection) instead of sorting every vertex.
	slots := int(ratio * float64(d.NumVertices()))
	ranking := hot.RankTop(slots)
	return CacheEvaluation{
		Policy:           policy.String(),
		CacheRatio:       ratio,
		HitRate:          fp.HitRate(ranking, slots),
		TransferredBytes: fp.TransferredBytes(ranking, slots, d.VertexFeatureBytes()) / int64(epochs),
	}, nil
}

// Rand is the deterministic random number generator handed to sampling
// algorithms. It is exported (as an alias) so downstream code can
// implement custom SamplingAlgorithm values — the §5.1 programming model.
type Rand = rng.Rand
