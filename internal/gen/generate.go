package gen

import (
	"fmt"
	"math"

	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
)

// Generate builds the dataset described by cfg. Output is deterministic in
// cfg (including Seed).
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed ^ 0xD1B54A32D192ED03)

	var g *graph.CSR
	var err error
	switch cfg.Kind {
	case KindCoPurchase:
		g, err = genCoPurchase(cfg, r.Split(1))
	case KindSocial:
		g, err = genSocial(cfg, r.Split(2))
	case KindCitation:
		g, err = genCitation(cfg, r.Split(3))
	case KindWeb:
		g, err = genWeb(cfg, r.Split(4))
	case KindCommunity:
		g, err = genCommunity(cfg, r.Split(5))
	default:
		return nil, fmt.Errorf("gen: unknown kind %v", cfg.Kind)
	}
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated graph invalid: %w", err)
	}

	d := &Dataset{
		Name:       cfg.Name,
		Kind:       cfg.Kind,
		Graph:      g,
		FeatureDim: cfg.FeatureDim,
		NumClasses: cfg.NumClasses,
	}
	if cfg.NumClasses > 0 {
		d.Labels = genLabels(cfg, r.Split(6))
	}
	if cfg.MaterializeFeatures {
		d.Features = genFeatures(cfg, d.Labels, r.Split(7))
	}
	d.TrainSet = genTrainSet(cfg, r.Split(8))
	return d, nil
}

// drawRound is how many Zipf values genCitation and genCoPurchase take
// from one DrawN call.
const drawRound = 1 << 16

// hubPerm returns a permutation mapping Zipf rank to vertex ID, so that the
// identity of "hub" vertices is randomized rather than always being the low
// IDs.
func hubPerm(n int, r *rng.Rand) []int32 { return r.Perm(n) }

// vertexWeights returns the weight of every edge into each vertex:
// edgeWeight of the vertex's "registration year" in [0,1) (0 = oldest).
// Years anti-correlate with hub rank: early adopters accumulate the most
// followers/citations, so the heaviest hubs are old. Weighted sampling
// prefers *recent* destinations, which is exactly why degree-based caching
// collapses under it (§3, Fig 5b): the cached old hubs stop being sampled.
func vertexWeights(n int, perm []int32, r *rng.Rand) []float32 {
	weights := make([]float32, n)
	for rank := 0; rank < n; rank++ {
		base := math.Pow(float64(rank)/float64(n), 0.6)
		y := base + 0.15*r.NormFloat64()
		if y < 0 {
			y = 0
		}
		if y > 0.999 {
			y = 0.999
		}
		weights[perm[rank]] = edgeWeight(float32(y))
	}
	return weights
}

// edgeWeight maps the destination's year to a sampling weight: only the
// most recently registered ~30% of vertices carry real weight, so weighted
// sampling concentrates on "new" vertices regardless of their degree and
// the weighted-hot set diverges sharply from the degree-hot set
// (reproducing §3's observation on Twitter + weighted sampling, Fig 5b).
func edgeWeight(year float32) float32 {
	y := float64(year)
	recency := (y - 0.7) / 0.3
	if recency < 0 {
		recency = 0
	}
	return float32(0.02 + recency*recency*recency)
}

// genSocial emits a heavy power-law directed graph (Twitter-like): edge
// destinations (being followed) are drawn from a heavy Zipf so the sampled
// footprint concentrates on hubs, while sources (following) use a milder
// Zipf over the *same* hub ranking — in- and out-degree correlate, which
// is exactly the regime where PaGraph's out-degree caching policy works.
func genSocial(cfg Config, r *rng.Rand) (*graph.CSR, error) {
	n := cfg.NumVertices
	perm := hubPerm(n, r.Split(0))
	zIn := rng.NewZipf(uint64(n), 1.3)
	zOut := rng.NewZipf(uint64(n), 0.7)
	weights := vertexWeights(n, perm, r.Split(1))
	b := graph.NewBuilder(n, cfg.Weighted)
	b.Grow(int(cfg.NumEdges))
	for int64(b.NumEdges()) < cfg.NumEdges {
		src := perm[zOut.Draw(r)]
		dst := perm[zIn.Draw(r)]
		if src == dst {
			continue
		}
		b.AddEdge(src, dst, weights[dst])
	}
	return b.Build(false)
}

// genWeb emits a skewed directed graph with *partially* decorrelated in-
// and out-degree rankings, like a web crawl: some popular pages are also
// link-heavy hubs, but most out-link-heavy pages are not popular. The
// degree-based caching policy therefore gets weak signal on UK — better
// than random, far from optimal (§3, Fig 10).
func genWeb(cfg Config, r *rng.Rand) (*graph.CSR, error) {
	n := cfg.NumVertices
	permOut := hubPerm(n, r.Split(0))
	permIn := hubPerm(n, r.Split(1))
	zOut := rng.NewZipf(uint64(n), 0.7)
	zIn := rng.NewZipf(uint64(n), 0.95)
	weights := vertexWeights(n, permIn, r.Split(2))
	b := graph.NewBuilder(n, cfg.Weighted)
	b.Grow(int(cfg.NumEdges))
	const hubOverlap = 0.35 // fraction of out-link mass placed on popular pages
	for int64(b.NumEdges()) < cfg.NumEdges {
		var src int32
		if r.Float64() < hubOverlap {
			src = permIn[zOut.Draw(r)]
		} else {
			src = permOut[zOut.Draw(r)]
		}
		dst := permIn[zIn.Draw(r)]
		if src == dst {
			continue
		}
		b.AddEdge(src, dst, weights[dst])
	}
	return b.Build(false)
}

// genCitation emits a citation-like graph: every vertex has a lognormal
// out-degree (its reference list) so out-degree is nearly uninformative,
// while destinations follow a mild Zipf so in-degree is moderately skewed.
func genCitation(cfg Config, r *rng.Rand) (*graph.CSR, error) {
	n := cfg.NumVertices
	permIn := hubPerm(n, r.Split(0))
	z := rng.NewZipf(uint64(n), 1.2)
	weights := vertexWeights(n, permIn, r.Split(1))

	avg := float64(cfg.NumEdges) / float64(n)
	// Out-degrees (reference-list lengths) are lognormal — narrow, so
	// out-degree carries little caching signal — with a *weak* positive
	// coupling to citation rank: heavily-cited papers tend to have
	// somewhat longer reference lists, which is why the Degree policy is
	// better than random on ogbn-papers yet still far from optimal.
	sigma := 0.5
	mu := math.Log(avg) - sigma*sigma/2
	// degCount[d] counts the vertices drawing out-degree d; reading it
	// from the top yields the degrees in descending order.
	degCount := make([]int, max(1, 8*int(avg))+1)
	for range n {
		deg := int(math.Round(math.Exp(mu + sigma*r.NormFloat64())))
		degCount[min(max(deg, 1), 8*int(avg))]++
	}
	// Noisy rank coupling: in-rank i gets a key of i plus large uniform
	// noise; sorting the keys decides which in-rank receives the j-th
	// largest out-degree. The noise scale sets the (weak) correlation.
	coupling := cfg.DegreeCoupling
	if coupling == 0 {
		coupling = 2.5
	}
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = float64(i) + r.Float64()*coupling*float64(n)
	}
	order := graph.RadixTop(graph.Identity(n), n, func(ids []int32, out []uint64) {
		for i, v := range ids {
			out[i] = graph.FloatKey(keys[v])
		}
	})
	outDeg := make([]int, n)
	deg := len(degCount) - 1
	for _, inRank := range order {
		for degCount[deg] == 0 {
			deg--
		}
		degCount[deg]--
		outDeg[permIn[inRank]] = deg
	}

	// Vertex v draws outDeg[v] destinations, in vertex order, and nothing
	// else draws from r: the draws come in rounds of DrawN.
	left := 0
	for _, d := range outDeg {
		left += d
	}
	b := graph.NewBuilder(n, cfg.Weighted)
	b.Grow(int(cfg.NumEdges))
	draws := make([]uint64, min(drawRound, left))
	v, refs := 0, outDeg[0] // the vertex whose draws come next, and how many it still takes
	for left > 0 {
		round := draws[:min(len(draws), left)]
		z.DrawN(r, round)
		left -= len(round)
		for _, k := range round {
			for refs == 0 {
				v++
				refs = outDeg[v]
			}
			refs--
			dst := permIn[k]
			if dst == int32(v) {
				continue
			}
			b.AddEdge(int32(v), dst, weights[dst])
		}
	}
	return b.Build(false)
}

// genCoPurchase emits a symmetric moderately skewed graph: undirected edges
// added in both directions.
func genCoPurchase(cfg Config, r *rng.Rand) (*graph.CSR, error) {
	n := cfg.NumVertices
	perm := hubPerm(n, r.Split(0))
	z := rng.NewZipf(uint64(n), 1.25)
	weights := vertexWeights(n, perm, r.Split(1))
	b := graph.NewBuilder(n, cfg.Weighted)
	b.Grow(int(cfg.NumEdges))
	// Draw pairs until the edge count reaches cfg.NumEdges−1, in rounds of
	// DrawN. A round never holds more pairs than are still needed if every
	// one is kept, so the serial loop would have drawn each of them.
	draws := make([]uint64, drawRound)
	for e := int64(b.NumEdges()); e+1 < cfg.NumEdges; e = int64(b.NumEdges()) {
		round := draws[:2*min(int64(len(draws)/2), (cfg.NumEdges-e)/2)]
		z.DrawN(r, round)
		for i := 0; i < len(round); i += 2 {
			u, v := perm[round[i]], perm[round[i+1]]
			if u == v {
				continue
			}
			b.AddEdge(u, v, weights[v])
			b.AddEdge(v, u, weights[u])
		}
	}
	return b.Build(false)
}

// genCommunity emits a planted-partition graph: vertices belong to
// NumClasses communities and edges stay within the community with high
// probability, so a GNN aggregating neighbor features can recover labels.
func genCommunity(cfg Config, r *rng.Rand) (*graph.CSR, error) {
	if cfg.NumClasses <= 0 {
		return nil, fmt.Errorf("gen: %s: KindCommunity requires NumClasses > 0", cfg.Name)
	}
	n := cfg.NumVertices
	c := cfg.NumClasses
	weights := vertexWeights(n, graph.Identity(n), r.Split(1))
	const intra = 0.8
	b := graph.NewBuilder(n, cfg.Weighted)
	b.Grow(int(cfg.NumEdges))
	for int64(b.NumEdges()) < cfg.NumEdges {
		src := int32(r.Intn(n))
		var dst int32
		if r.Float64() < intra {
			// Same community: communities are the residue classes mod c.
			comm := int(src) % c
			members := (n - comm + c - 1) / c
			dst = int32(r.Intn(members)*c + comm)
		} else {
			dst = int32(r.Intn(n))
		}
		if src == dst || int(dst) >= n {
			continue
		}
		b.AddEdge(src, dst, weights[dst])
	}
	return b.Build(false)
}

// genLabels assigns class labels. Community graphs label by community;
// everything else labels by a hash so labels exist but are structureless.
func genLabels(cfg Config, r *rng.Rand) []int32 {
	labels := make([]int32, cfg.NumVertices)
	if cfg.Kind == KindCommunity {
		for v := range labels {
			labels[v] = int32(v % cfg.NumClasses)
		}
		return labels
	}
	for v := range labels {
		labels[v] = int32(r.Intn(cfg.NumClasses))
	}
	return labels
}

// genFeatures materializes features. When labels are present the feature of
// a vertex is a noisy indicator of its class spread over the feature dim,
// which makes the classification task learnable; otherwise features are
// standard normal.
func genFeatures(cfg Config, labels []int32, r *rng.Rand) []float32 {
	n, dim := cfg.NumVertices, cfg.FeatureDim
	feats := make([]float32, n*dim)
	for v := 0; v < n; v++ {
		row := feats[v*dim : (v+1)*dim]
		for i := range row {
			row[i] = float32(r.NormFloat64())
		}
		if labels != nil && cfg.NumClasses > 0 {
			// Weak per-vertex signal: a single vertex's feature barely
			// identifies its class, so the model must aggregate sampled
			// neighborhoods over many epochs — giving the convergence
			// experiment (Fig 16) a non-trivial epochs-to-target curve.
			for i := int(labels[v]); i < dim; i += cfg.NumClasses {
				row[i] += 0.28
			}
		}
	}
	return feats
}

// genTrainSet picks ⌈TrainFraction·n⌉ distinct vertices, ascending.
func genTrainSet(cfg Config, r *rng.Rand) []int32 {
	n := cfg.NumVertices
	k := int(math.Ceil(cfg.TrainFraction * float64(n)))
	if k > n {
		k = n
	}
	picked := make([]bool, n)
	for _, v := range r.Perm(n)[:k] {
		picked[v] = true
	}
	ts := make([]int32, 0, k)
	for v, p := range picked {
		if p {
			ts = append(ts, int32(v))
		}
	}
	return ts
}
