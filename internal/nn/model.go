package nn

import (
	"fmt"

	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/tensor"
	"gnnlab/internal/workload"
)

// Layer is one GNN layer with a hand-written backward pass. ForwardLayer
// returns an opaque context that BackwardLayer consumes. ws supplies the
// working tensors; the output and context are borrowed until the
// workspace's next pass.
//
// BackwardLayer always accumulates the layer's parameter gradients. It
// computes and returns the gradient w.r.t. hIn only when needInput is
// set, and returns nil otherwise: the input gradient feeds the layer
// below and nothing else, so a layer with nothing trainable below it
// (layer 0 — input features are data, not parameters) skips it, its
// Needed[0]-row buffers and its scatter, with every Param.Grad unchanged
// to the bit.
type Layer interface {
	Params() []*tensor.Param
	ForwardLayer(ws *Workspace, c *Compact, hIn *tensor.Matrix, numOut int) (*tensor.Matrix, any)
	BackwardLayer(ws *Workspace, c *Compact, ctx any, gradOut *tensor.Matrix, needInput bool) *tensor.Matrix
}

// Model is a stack of GNN layers ending in a classifier head (the last
// layer outputs logits over classes, no activation).
type Model struct {
	Kind   workload.ModelKind
	Layers []Layer
}

// NewModel builds the paper's model for kind: L layers (L = sampling hops),
// hidden width hiddenDim, classifying into numClasses.
func NewModel(kind workload.ModelKind, numLayers, inputDim, hiddenDim, numClasses int, seed uint64) *Model {
	if numLayers <= 0 {
		panic("nn: NewModel with no layers")
	}
	agg := AggGCN
	switch kind {
	case workload.GraphSAGE:
		agg = AggSAGE
	case workload.PinSAGE:
		agg = AggPinSAGE
	}
	r := rng.New(seed ^ 0x6D6F64656C)
	m := &Model{Kind: kind}
	dims := make([]int, numLayers+1)
	dims[0] = inputDim
	for i := 1; i < numLayers; i++ {
		dims[i] = hiddenDim
	}
	dims[numLayers] = numClasses
	for l := 0; l < numLayers; l++ {
		relu := l < numLayers-1
		if kind == workload.GAT {
			// Hidden layers use 4 concatenated attention heads (when the
			// width divides); the classifier head is single-head.
			heads := 1
			if relu && dims[l+1]%4 == 0 {
				heads = 4
			}
			m.Layers = append(m.Layers, NewGATMultiHead(dims[l], dims[l+1], heads, relu, r.Split(uint64(l))))
		} else {
			m.Layers = append(m.Layers, NewConv(agg, dims[l], dims[l+1], relu, r.Split(uint64(l))))
		}
	}
	return m
}

// Params returns every trainable parameter.
func (m *Model) Params() []*tensor.Param {
	var ps []*tensor.Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ForwardWS runs the model on a compact sample whose features are rows
// of feats (NumVertices × inputDim) and returns the seed logits plus the
// layer contexts for BackwardWS, all borrowed from ws until its next pass.
func (m *Model) ForwardWS(ws *Workspace, g *Compact, feats *tensor.Matrix) (*tensor.Matrix, []any, error) {
	if g.NumLevels != len(m.Layers) {
		return nil, nil, fmt.Errorf("nn: sample has %d hops, model has %d layers", g.NumLevels, len(m.Layers))
	}
	if feats.Rows != g.NumVertices {
		return nil, nil, fmt.Errorf("nn: %d feature rows for %d vertices", feats.Rows, g.NumVertices)
	}
	h := feats
	ctxs := ws.layerCtxs(len(m.Layers))
	for l, layer := range m.Layers {
		var ctx any
		h, ctx = layer.ForwardLayer(ws, g, h, g.Needed[l+1])
		ctxs[l] = ctx
	}
	return h, ctxs, nil
}

// BackwardWS propagates the loss gradient (w.r.t. seed logits) through
// the stack, accumulating parameter gradients and drawing working tensors
// from ws. Layer l's input gradient is read by layer l-1 only, so layer 0
// is not asked for one.
func (m *Model) BackwardWS(ws *Workspace, g *Compact, ctxs []any, gradLogits *tensor.Matrix) {
	grad := gradLogits
	for l := len(m.Layers) - 1; l >= 0; l-- {
		grad = m.Layers[l].BackwardLayer(ws, g, ctxs[l], grad, l > 0)
	}
}

// LossAndGradWS runs forward+loss+backward for one mini-batch entirely
// inside ws and returns (mean loss, correct predictions): forward
// activations, the logits gradient and every backward intermediate come
// from the workspace, so a steady-state call allocates nothing. Parameter
// gradients accumulate; the caller decides when to step the optimizer
// (accumulating across k batches then stepping models k synchronous
// data-parallel trainers exactly).
func (m *Model) LossAndGradWS(ws *Workspace, g *Compact, feats *tensor.Matrix, labels []int32) (float64, int, error) {
	ws.reset()
	logits, ctxs, err := m.ForwardWS(ws, g, feats)
	if err != nil {
		return 0, 0, err
	}
	gradLogits := ws.arena.Matrix(logits.Rows, logits.Cols)
	loss, correct := tensor.SoftmaxCrossEntropy(logits, labels, gradLogits)
	m.BackwardWS(ws, g, ctxs, gradLogits)
	return loss, correct, nil
}

// PredictWS runs forward inside ws and returns the number of correct
// seed predictions.
func (m *Model) PredictWS(ws *Workspace, g *Compact, feats *tensor.Matrix, labels []int32) (int, error) {
	ws.reset()
	logits, _, err := m.ForwardWS(ws, g, feats)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		argmax := 0
		for j, v := range row {
			if v > row[argmax] {
				argmax = j
			}
		}
		if int32(argmax) == labels[i] {
			correct++
		}
	}
	return correct, nil
}

// ClassifyWS runs forward inside ws and returns the per-seed argmax
// class for each of the g.NumSeeds seed vertices, appended into dst
// (grown as needed, reused across calls) — the inference path of the
// serving layer, where no labels exist and the caller wants the
// predictions themselves rather than an accuracy count.
func (m *Model) ClassifyWS(ws *Workspace, g *Compact, feats *tensor.Matrix, dst []int32) ([]int32, error) {
	ws.reset()
	logits, _, err := m.ForwardWS(ws, g, feats)
	if err != nil {
		return dst, err
	}
	dst = growInt32s(dst, logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		argmax := 0
		for j, v := range row {
			if v > row[argmax] {
				argmax = j
			}
		}
		dst[i] = int32(argmax)
	}
	return dst, nil
}

// SeedLabelsInto gathers the labels of a sample's seeds into dst's
// backing array when its capacity suffices (reallocating otherwise).
func SeedLabelsInto(dst []int32, s *sampling.Sample, labels []int32) []int32 {
	dst = growInt32s(dst, len(s.Seeds))
	for i, v := range s.Seeds {
		dst[i] = labels[v]
	}
	return dst
}
