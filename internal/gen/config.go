// Package gen produces the synthetic datasets used throughout the
// reproduction. The paper evaluates on four real graphs (ogbn-products,
// Twitter, ogbn-papers100M, uk-2006) that are unavailable here, so each is
// replaced by a deterministic generator at 1/100 scale whose degree shape,
// feature dimension and training-set fraction match the original (see
// DESIGN.md, "Hardware substitution").
package gen

import (
	"fmt"

	"gnnlab/internal/graph"
)

// Kind selects the structural family of a generated graph.
type Kind int

const (
	// KindCoPurchase models ogbn-products: a symmetric co-purchasing
	// network with a moderate power-law degree distribution.
	KindCoPurchase Kind = iota
	// KindSocial models Twitter: a heavy power-law directed graph whose
	// in- and out-degrees are strongly correlated (hubs are hubs both
	// ways), which is the regime where degree-based caching works.
	KindSocial
	// KindCitation models ogbn-papers100M: out-degrees (reference lists)
	// are narrow and lognormal, so out-degree carries almost no signal
	// about how often a vertex is sampled.
	KindCitation
	// KindWeb models uk-2006: degrees are skewed but in- and out-degree
	// rankings are decorrelated (pages with many out-links are not the
	// popular pages), weakening degree-based caching.
	KindWeb
	// KindCommunity is a planted-partition graph with labels and
	// label-correlated features, used for real training to an accuracy
	// target (the convergence experiment, Fig 16).
	KindCommunity
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindCoPurchase:
		return "co-purchase"
	case KindSocial:
		return "social"
	case KindCitation:
		return "citation"
	case KindWeb:
		return "web"
	case KindCommunity:
		return "community"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config fully determines a generated dataset: same Config, same bytes.
type Config struct {
	Name        string
	Kind        Kind
	NumVertices int
	NumEdges    int64
	// Skew is the Zipf exponent used for skewed endpoint selection.
	Skew float64
	// Weighted attaches "registration year" edge weights used by the
	// weighted neighborhood sampling algorithm. Weights depend on the
	// destination vertex, not its degree, so weighted hotness is
	// decorrelated from degree (§3, Fig 5b).
	Weighted bool
	// FeatureDim is the per-vertex feature width (float32 lanes).
	FeatureDim int
	// TrainFraction of vertices form the training set.
	TrainFraction float64
	// NumClasses > 0 plants labels (KindCommunity honors community
	// structure; other kinds label by hash).
	NumClasses int
	// MaterializeFeatures generates actual feature values. Timing
	// experiments only need feature *bytes*, so large presets leave this
	// false; the convergence dataset sets it.
	MaterializeFeatures bool
	// DegreeCoupling sets the noise scale (in units of |V|) of the
	// citation generator's out-degree ↔ citation-rank coupling: smaller
	// values couple reference-list length more tightly to popularity,
	// which is exactly what the Degree caching policy feeds on. 0 uses
	// the calibrated default (2.5).
	DegreeCoupling float64
	Seed           uint64
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.NumVertices <= 0:
		return fmt.Errorf("gen: %s: NumVertices must be positive", c.Name)
	case c.NumEdges <= 0:
		return fmt.Errorf("gen: %s: NumEdges must be positive", c.Name)
	case c.FeatureDim <= 0:
		return fmt.Errorf("gen: %s: FeatureDim must be positive", c.Name)
	case c.TrainFraction <= 0 || c.TrainFraction > 1:
		return fmt.Errorf("gen: %s: TrainFraction must be in (0,1]", c.Name)
	case c.Skew < 0:
		return fmt.Errorf("gen: %s: Skew must be non-negative", c.Name)
	}
	return nil
}

// Dataset bundles a generated graph with its training metadata. Feature
// values are only materialized when Config.MaterializeFeatures was set;
// otherwise Features is nil and only FeatureDim/FeatureBytes matter.
type Dataset struct {
	Name string
	Kind Kind
	// Graph is the dataset's topology: a base *graph.CSR for generated or
	// loaded datasets, or a *graph.Snapshot when a dynamic workload swaps
	// in a delta view. Use CSR() when concrete CSR storage is required
	// (serialization).
	Graph      graph.View
	FeatureDim int
	// Features is row-major [NumVertices*FeatureDim], or nil.
	Features []float32
	// Labels is per-vertex class labels, or nil.
	Labels     []int32
	NumClasses int
	// TrainSet lists training vertex IDs in ascending order.
	TrainSet []int32
}

// CSR returns the graph as concrete CSR storage, or nil when the dataset
// carries a non-CSR view (e.g. a delta snapshot).
func (d *Dataset) CSR() *graph.CSR {
	c, _ := d.Graph.(*graph.CSR)
	return c
}

// NumVertices returns the vertex count.
func (d *Dataset) NumVertices() int { return d.Graph.NumVertices() }

// FeatureBytes returns Vol_F: the total feature volume in bytes.
func (d *Dataset) FeatureBytes() int64 {
	return int64(d.Graph.NumVertices()) * int64(d.FeatureDim) * 4
}

// VertexFeatureBytes returns the feature size of a single vertex.
func (d *Dataset) VertexFeatureBytes() int64 { return int64(d.FeatureDim) * 4 }

// TopologyBytes returns Vol_G.
func (d *Dataset) TopologyBytes() int64 { return d.Graph.TopologyBytes() }
