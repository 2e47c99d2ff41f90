package gnnlab

import (
	"fmt"
	"sync/atomic"

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
// deduplicated, locally-renumbered sample. An instance serves one
// goroutine. One that also has a Clone() SamplingAlgorithm method hands
// each measurement worker its own instance; one without is run on a
// single worker.
//
// A custom algorithm must emit the built-in layout: distinct Input
// vertices, seeds first; a CSR (AdjStart/AdjNbr) with one row of sampled
// neighbor locals per input; Layers whose targets' rows are their edges;
// empty rows for the locals no layer expanded (sampling.Validator.Check
// lists every rule). Editing a built-in sampler's rows in place, as
// examples/customsampler does, keeps it. EvaluateCachePolicy rejects a
// custom algorithm's first invalid sample with an error.
type SamplingAlgorithm = sampling.Algorithm

// Sample is the output of the Sample stage for one mini-batch. A
// built-in algorithm reuses its buffers, so its sample is valid until the
// instance's next Sample call; a caller that keeps one keeps its Clone.
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
// PreSC#1; Optimal ranks by the measured epochs themselves. A custom
// algorithm's samples are validated before the cache code reads them.
func EvaluateCachePolicy(d *Dataset, alg SamplingAlgorithm, policy CachePolicy, ratio float64, batchSize, epochs int, seed uint64) (CacheEvaluation, error) {
	if alg == nil || batchSize <= 0 || epochs <= 0 || !(ratio >= 0 && ratio <= 1) {
		return CacheEvaluation{}, fmt.Errorf("gnnlab: need a sampler, a positive batch size and epoch count, and a cache ratio in [0, 1] (batch size %d, epochs %d, ratio %v)", batchSize, epochs, ratio)
	}
	var failed atomic.Pointer[error]
	if _, builtin := sampling.ScratchStatsOf(alg); !builtin {
		alg = checked(alg, &failed)
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
	if err := failed.Load(); err != nil {
		return CacheEvaluation{}, *err
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

// checkedSampler wraps a custom algorithm for EvaluateCachePolicy and
// checks every sample it returns. An invalid sample is replaced by an
// empty one, so the cache code never reads it, and the first such error
// is kept in failed for the caller to return.
type checkedSampler struct {
	SamplingAlgorithm
	check  sampling.Validator
	failed *atomic.Pointer[error]
}

// checkedCloner is a checkedSampler over an algorithm that hands out
// per-worker instances; each clone checks its own samples.
type checkedCloner struct{ *checkedSampler }

func checked(alg SamplingAlgorithm, failed *atomic.Pointer[error]) SamplingAlgorithm {
	c := &checkedSampler{SamplingAlgorithm: alg, failed: failed}
	if _, ok := alg.(sampling.Cloner); ok {
		return checkedCloner{c}
	}
	return c
}

// Clone implements sampling.Cloner.
func (c checkedCloner) Clone() SamplingAlgorithm {
	return checked(c.SamplingAlgorithm.(sampling.Cloner).Clone(), c.failed)
}

// Prepare implements sampling.Preparer for the wrapped algorithm.
func (c *checkedSampler) Prepare(g GraphView) { sampling.Prepare(c.SamplingAlgorithm, g) }

// Sample implements SamplingAlgorithm.
func (c *checkedSampler) Sample(g GraphView, seeds []int32, r *Rand) *Sample {
	s := c.SamplingAlgorithm.Sample(g, seeds, r)
	if err := c.check.Check(s, g.NumVertices()); err != nil {
		err = fmt.Errorf("gnnlab: sampler %s returned an invalid sample: %w", c.Name(), err)
		c.failed.CompareAndSwap(nil, &err)
		return &Sample{}
	}
	return s
}

// Rand is the deterministic random number generator handed to sampling
// algorithms. It is exported (as an alias) so downstream code can
// implement custom SamplingAlgorithm values — the §5.1 programming model.
type Rand = rng.Rand
