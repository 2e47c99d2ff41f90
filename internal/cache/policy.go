// Package cache implements the GPU-based feature caching scheme of §6: a
// general scheme parameterized by a hotness metric h_v and a cache ratio α,
// the built-in policies (Random, Degree as in PaGraph, the paper's
// pre-sampling based PreSC#K, and the Optimal oracle), the load_cache
// procedure that fills a cache table from a ranking, and the per-minibatch
// hit/miss accounting the Extract stage uses.
package cache

import (
	"fmt"

	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
)

// PolicyKind identifies a caching policy.
type PolicyKind int

const (
	// PolicyRandom caches a uniform random subset of vertices.
	PolicyRandom PolicyKind = iota
	// PolicyDegree caches the highest out-degree vertices (PaGraph [35]).
	PolicyDegree
	// PolicyPreSC caches by average visit count over K pre-sampling
	// epochs (the paper's contribution, §6.3).
	PolicyPreSC
	// PolicyOptimal caches the vertices actually most extracted during
	// the measured run — an oracle upper bound (§3, footnote 4).
	PolicyOptimal
)

// String returns the policy name as used in the paper's figures.
func (p PolicyKind) String() string {
	switch p {
	case PolicyRandom:
		return "Random"
	case PolicyDegree:
		return "Degree"
	case PolicyPreSC:
		return "PreSC"
	case PolicyOptimal:
		return "Optimal"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(p))
	}
}

// RankSpec is everything a policy's ranking may read. Each policy reads
// only some of it; Inputs names which.
type RankSpec struct {
	Policy    PolicyKind
	Graph     graph.View
	Alg       sampling.Algorithm
	TrainSet  []int32
	BatchSize int
	Seed      uint64
	// Workers sizes the replay pool (0 = GOMAXPROCS); rankings are
	// identical at any setting.
	Workers int
	// PreSCK is PreSC's K: how many epochs it pre-samples.
	PreSCK int
	// Epochs is the length of the run Optimal's oracle replays.
	Epochs int
}

// Ranking is a policy's hotness metric and the work that built it.
type Ranking struct {
	Hotness Hotness
	// PreSample is the Sample-stage work paid before training starts, as
	// edge totals for the cost model: PreSC's K epochs. It is nil for the
	// other policies (Optimal's replay is an oracle, not a cost).
	PreSample *sampling.Sample
}

// Rank computes s.Policy's ranking. It is the one owner of the mapping
// from policy to hotness metric, and of the seed each metric draws from.
func Rank(s RankSpec) (Ranking, error) {
	_, rank, err := resolve(s)
	if err != nil {
		return Ranking{}, err
	}
	return rank(), nil
}

// Inputs returns s reduced to what its policy reads (Workers never
// counts): two specs with equal inputs over the same graph and training
// set rank identically, which is what a memo key needs.
func (s RankSpec) Inputs() (RankSpec, error) {
	in, _, err := resolve(s)
	return in, err
}

// resolve validates s and returns its inputs together with the
// computation that ranks them.
func resolve(s RankSpec) (RankSpec, func() Ranking, error) {
	in := RankSpec{Policy: s.Policy, Graph: s.Graph, TrainSet: s.TrainSet}
	switch s.Policy {
	case PolicyRandom:
		in.Seed = s.Seed
		return in, func() Ranking {
			return Ranking{Hotness: RandomHotness(s.Graph.NumVertices(), rng.New(s.Seed^0x5EED))}
		}, nil
	case PolicyDegree:
		return in, func() Ranking { return Ranking{Hotness: DegreeHotness(s.Graph)} }, nil
	case PolicyPreSC:
		if s.Alg == nil || s.BatchSize <= 0 || s.PreSCK <= 0 {
			return RankSpec{}, nil, fmt.Errorf("cache: PreSC needs a sampler, a positive batch size and a positive K (batch size %d, K %d)", s.BatchSize, s.PreSCK)
		}
		in.Alg, in.BatchSize, in.Seed, in.PreSCK = s.Alg, s.BatchSize, s.Seed, s.PreSCK
		return in, func() Ranking {
			res := PreSCN(s.Graph, s.Alg, s.TrainSet, s.BatchSize, s.PreSCK, s.Seed^0x12345, s.Workers)
			pre := &sampling.Sample{SampledEdges: res.SampledEdges, ScannedEdges: res.ScannedEdges}
			return Ranking{Hotness: res.Hotness, PreSample: pre}
		}, nil
	case PolicyOptimal:
		if s.Alg == nil || s.BatchSize <= 0 || s.Epochs <= 0 {
			return RankSpec{}, nil, fmt.Errorf("cache: Optimal needs a sampler, a positive batch size and a positive epoch count (batch size %d, epochs %d)", s.BatchSize, s.Epochs)
		}
		in.Alg, in.BatchSize, in.Seed, in.Epochs = s.Alg, s.BatchSize, s.Seed, s.Epochs
		// The oracle sees the measured run itself: identical seed and
		// epoch count reproduce the exact footprint (§3 footnote 4).
		return in, func() Ranking {
			fp := CollectFootprintN(s.Graph, s.Alg, s.TrainSet, s.BatchSize, s.Epochs, s.Seed, s.Workers)
			return Ranking{Hotness: fp.OptimalHotness()}
		}, nil
	default:
		return RankSpec{}, nil, fmt.Errorf("cache: unknown policy %v", s.Policy)
	}
}

// Hotness holds the per-vertex hotness metric h_v (§6.1). Higher is hotter.
//
// For dynamic graphs the metric is maintained incrementally: Decay and
// ApplyDelta implement exponentially-decayed visit counting in O(1)+O(|Δ|)
// per round via a lazy inflation factor (decaying every score would be
// O(|V|)). Because inflation scales all scores uniformly, the raw Score
// ordering equals the decayed ordering, so Rank/RankTop read Score
// directly and stay unchanged.
type Hotness struct {
	Score []float64
	// inflate is the lazy-decay scale: new contributions are multiplied by
	// it instead of decaying every existing score. Zero means 1
	// (uninitialized struct literals keep their static semantics).
	inflate float64
}

// NewHotness wraps a score vector.
func NewHotness(score []float64) Hotness { return Hotness{Score: score} }

// Rank returns vertex IDs in descending hotness, ties broken by ascending
// ID so rankings are deterministic. Prefer RankTop when only a known
// prefix is needed (the usual case: load_cache reads `slots` entries);
// Rank remains for callers that reuse one ranking across many cache
// ratios.
func (h Hotness) Rank() []int32 {
	return h.RankTop(len(h.Score))
}

// RankTop returns the k hottest vertex IDs in descending hotness, ties
// broken by ascending ID — Rank()[:k] — in O(|V|) time (graph.RadixTop
// on the descending score key). −0 and +0 tie; a NaN score panics. k is
// clamped to the vertex count.
func (h Hotness) RankTop(k int) []int32 {
	return graph.RadixTop(graph.Identity(len(h.Score)), k, func(ids []int32, keys []uint64) {
		for i, v := range ids {
			keys[i] = ^graph.FloatKey(h.Score[v])
		}
	})
}

// DeltaVisit is one vertex's fresh hotness contribution from a batch of
// changes — new sampled visits in the delta region for PreSC-style
// maintenance, or new out-edges for degree-style maintenance.
type DeltaVisit struct {
	Vertex int32
	Count  float64
}

// scaleCap bounds the lazy inflation factor; past it every score is
// renormalized (uniform division, order-preserving) to keep the arithmetic
// far from float64 overflow.
const scaleCap = 1e100

// Decay multiplies every effective score by factor (0 < factor <= 1) in
// O(1): instead of sweeping the vector, future contributions are inflated
// by 1/factor. Renormalization runs only when the accumulated inflation
// nears the float range — amortized O(1) per round.
func (h *Hotness) Decay(factor float64) {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("cache: Decay factor %v outside (0,1]", factor))
	}
	if h.inflate == 0 {
		h.inflate = 1
	}
	h.inflate /= factor
	if h.inflate > scaleCap {
		inv := 1 / h.inflate
		for v := range h.Score {
			h.Score[v] *= inv
		}
		h.inflate = 1
	}
}

// ApplyDelta folds a batch of fresh visits into the decayed metric in
// O(|Δ|): each count is scaled by the current inflation so it outweighs
// older, decayed contributions. This is the incremental alternative to a
// full PreSC re-run after graph drift — the resulting Score vector feeds
// the same radix RankTop.
func (h *Hotness) ApplyDelta(visits []DeltaVisit) {
	scale := h.inflate
	if scale == 0 {
		scale = 1
	}
	for _, dv := range visits {
		h.Score[dv.Vertex] += dv.Count * scale
	}
}

// Grow extends the score vector to n vertices (new vertices start cold at
// score 0), matching Delta.AddVertices growth.
func (h *Hotness) Grow(n int) {
	if n <= len(h.Score) {
		return
	}
	grown := make([]float64, n)
	copy(grown, h.Score)
	h.Score = grown
}

// DegreeHotness returns h_v = out-degree(v), the PaGraph metric.
func DegreeHotness(g graph.View) Hotness {
	n := g.NumVertices()
	score := make([]float64, n)
	for v := 0; v < n; v++ {
		score[v] = float64(g.Degree(int32(v)))
	}
	return Hotness{Score: score}
}

// RandomHotness returns i.i.d. uniform scores, yielding a uniform random
// cache ranking.
func RandomHotness(n int, r *rng.Rand) Hotness {
	score := make([]float64, n)
	for v := range score {
		score[v] = r.Float64()
	}
	return Hotness{Score: score}
}

// CountHotness converts integer visit counts into a hotness metric.
func CountHotness(counts []int64) Hotness {
	score := make([]float64, len(counts))
	for v, c := range counts {
		score[v] = float64(c)
	}
	return Hotness{Score: score}
}

// SlotsFor translates a cache budget into a vertex count: how many feature
// rows of vertexFeatureBytes each fit into availBytes, capped at numVertices.
func SlotsFor(availBytes, vertexFeatureBytes int64, numVertices int) int {
	if vertexFeatureBytes <= 0 {
		panic("cache: non-positive vertex feature size")
	}
	if availBytes <= 0 {
		return 0
	}
	slots := int(availBytes / vertexFeatureBytes)
	if slots > numVertices {
		slots = numVertices
	}
	return slots
}

// RatioFor returns the cache ratio α implied by a slot count.
func RatioFor(slots, numVertices int) float64 {
	if numVertices == 0 {
		return 0
	}
	return float64(slots) / float64(numVertices)
}
