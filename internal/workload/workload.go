// Package workload describes the paper's three GNN training workloads —
// GCN, GraphSAGE, PinSAGE (§7.1) — as data: which sampling algorithm each
// uses, its layer dimensions and the FLOP count of a training iteration
// (driving the simulated Train stage), and its GPU memory footprints
// (driving the capacity model of §3). The real tensor implementation of
// these models lives in internal/nn; this package is the lightweight spec
// both the simulator and the scheduler consume.
package workload

import (
	"fmt"

	"gnnlab/internal/sampling"
)

// ModelKind identifies one of the paper's GNN models.
type ModelKind int

const (
	// GCN is a 3-layer graph convolutional network with 3-hop random
	// neighborhood sampling, fanouts 15/10/5.
	GCN ModelKind = iota
	// GraphSAGE is 2-layer with 2-hop sampling, fanouts 25/10.
	GraphSAGE
	// PinSAGE is 3-layer with random-walk neighborhoods (5 neighbors
	// from 4 paths of length 3).
	PinSAGE
	// GAT is a 2-layer graph attention network with 2-hop sampling — an
	// extension beyond the paper's three evaluated models (§2 lists
	// attention networks among the simple models sample-based systems
	// train).
	GAT
)

// String returns the model name as the paper abbreviates it.
func (k ModelKind) String() string {
	switch k {
	case GCN:
		return "GCN"
	case GraphSAGE:
		return "GSG"
	case PinSAGE:
		return "PSG"
	case GAT:
		return "GAT"
	default:
		return fmt.Sprintf("ModelKind(%d)", int(k))
	}
}

// Kinds lists the models in paper order.
func Kinds() []ModelKind { return []ModelKind{GCN, GraphSAGE, PinSAGE} }

// DefaultBatchSize is the paper's mini-batch size of 8000 training
// vertices, scaled by 1/100 with everything else.
const DefaultBatchSize = 80

// DefaultHiddenDim matches the paper's hidden layer dimension of 256.
const DefaultHiddenDim = 256

// Spec is a fully-parameterized GNN training workload.
type Spec struct {
	Kind      ModelKind
	HiddenDim int
	BatchSize int
	// Weighted switches GCN to the 3-hop weighted sampling variant
	// evaluated in §7.4.
	Weighted bool
}

// NewSpec returns the paper-default spec for a model kind.
func NewSpec(kind ModelKind) Spec {
	return Spec{Kind: kind, HiddenDim: DefaultHiddenDim, BatchSize: DefaultBatchSize}
}

// Name returns a short workload label, e.g. "GCN" or "GCN(W)".
func (s Spec) Name() string {
	if s.Weighted {
		return s.Kind.String() + "(W)"
	}
	return s.Kind.String()
}

// NumLayers returns the number of GNN layers (equal to sampling hops).
func (s Spec) NumLayers() int {
	switch s.Kind {
	case GraphSAGE, GAT:
		return 2
	default:
		return 3
	}
}

// NewSampler instantiates the workload's sampling algorithm.
func (s Spec) NewSampler() sampling.Algorithm {
	switch {
	case s.Kind == GCN && s.Weighted:
		return sampling.ForGCNWeighted()
	case s.Kind == GCN:
		return sampling.ForGCN()
	case s.Kind == GraphSAGE, s.Kind == GAT:
		return sampling.ForGraphSAGE()
	case s.Kind == PinSAGE:
		return sampling.ForPinSAGE()
	default:
		return sampling.ForGCN()
	}
}

// LayerDims is the shape of one sampled bipartite layer — the only
// sample-dependent inputs the FLOP model needs. A cost-model-free
// Measurement (internal/measure) records these shapes so the FLOP count
// can be re-derived later under any feature/hidden dimension.
type LayerDims struct {
	Edges   int // sampled edges feeding the layer (its targets' CSR rows)
	Targets int // target vertices the layer updates (Layer.NumDst)
}

// FLOPsFor estimates the floating point work of one training iteration
// on a sample with the given layer shapes (ordered seeds-outward, exactly
// as Sample.Layers is): for each GNN layer, a neighbor aggregation
// (2 × edges × dim_in) plus a dense transform (2 × targets × dim_in ×
// dim_out), with backward ≈ 2× forward. GNN layers consume the sample's
// bipartite layers from the outermost hop inward; layer l's targets are
// layer l-1's frontier.
func (s Spec) FLOPsFor(layers []LayerDims, inputDim int) float64 {
	const fwdBwd = 3.0 // forward + ~2x backward
	var flops float64
	dimIn := float64(inputDim)
	dimOut := float64(s.HiddenDim)
	// Outermost sample layer feeds the first GNN layer.
	for i := len(layers) - 1; i >= 0; i-- {
		l := layers[i]
		edges := float64(l.Edges)
		targets := float64(l.Targets)
		flops += fwdBwd * (2*edges*dimIn + 2*targets*dimIn*dimOut)
		dimIn = dimOut
	}
	// PinSAGE's importance pooling, concatenations and normalization
	// multiply per-vertex work; the factor is calibrated so the Train
	// stage lands at the paper's PSG/GCN ratio (Table 5) and the
	// scheduler sees the paper's K ≈ 10 on PA (§7.8).
	if s.Kind == PinSAGE {
		flops *= 4.0
	}
	// Attention scores and softmax add per-edge work.
	if s.Kind == GAT {
		flops *= 1.8
	}
	return flops
}

// Memory footprints, calibrated to the paper's measured peaks scaled by
// 1/100 (§3 reports ~1.3 GB sampling and ~3.6 GB training workspace for
// GCN; §6.1 determines the cache budget from the training peak of a probe
// mini-batch, which these constants stand in for). They reproduce the
// capacity outcomes of Tables 4/5: GCN and PinSAGE OOM on UK under time
// sharing, GraphSAGE squeaks by with a ~0% cache.
const mib = int64(1) << 20

// TrainWorkspaceBytes is the peak GPU memory of model training for one
// mini-batch (activations, gradients, optimizer state, cuDNN workspaces).
func (s Spec) TrainWorkspaceBytes() int64 {
	switch s.Kind {
	case GraphSAGE:
		return 18 * mib
	case GAT:
		return 24 * mib
	case PinSAGE:
		return 35 * mib
	default:
		return 36 * mib
	}
}

// SampleWorkspaceBytes is the GPU memory graph sampling needs at runtime
// (frontier buffers, dedup tables, RNG state).
func (s Spec) SampleWorkspaceBytes() int64 {
	switch s.Kind {
	case GraphSAGE, GAT:
		return 5 * mib
	case PinSAGE:
		return 10 * mib
	default:
		return 13 * mib
	}
}
