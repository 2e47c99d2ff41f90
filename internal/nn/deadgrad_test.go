package nn

import (
	"math"
	"testing"

	"gnnlab/internal/rng"
	"gnnlab/internal/tensor"
	"gnnlab/internal/workload"
)

// spyLayer records what Model.BackwardWS asks of a layer and what it gets
// back.
type spyLayer struct {
	Layer
	needInput bool
	gradIn    *tensor.Matrix
}

func (s *spyLayer) BackwardLayer(ws *Workspace, c *Compact, ctx any, gradOut *tensor.Matrix, needInput bool) *tensor.Matrix {
	s.needInput = needInput
	s.gradIn = s.Layer.BackwardLayer(ws, c, ctx, gradOut, needInput)
	return s.gradIn
}

// TestDeadInputGradient pins the dead-gradient elimination: the model's
// backward pass skips layer 0's input gradient, and every parameter
// gradient is bit-equal to the pass that computes it.
func TestDeadInputGradient(t *testing.T) {
	g := testGraph(51, 150, 5)
	kinds := []struct {
		kind   workload.ModelKind
		layers int
		// skipped is how many workspace matrices layer 0 no longer asks
		// for: gradIn, gradAgg (and gradSelf with a self path); for GAT,
		// gradIn and one headGradIn per head.
		skipped int64
	}{
		{workload.GCN, 2, 2},
		{workload.GraphSAGE, 2, 3},
		{workload.PinSAGE, 3, 3},
		{workload.GAT, 2, 1 + 4}, // hidden 8 → 4 heads in layer 0
	}
	for _, k := range kinds {
		const dim, hidden, classes = 6, 8, 3
		s := sampleFor(t, g, []int32{1, 2, 3, 4, 5}, fanoutsFor(k.layers))
		c, err := newCompact(s)
		if err != nil {
			t.Fatal(err)
		}
		feats := tensor.New(c.NumVertices, dim)
		r := rng.New(52)
		for i := range feats.Data {
			feats.Data[i] = float32(r.NormFloat64())
		}
		labels := []int32{0, 1, 2, 0, 1}
		newModel := func() *Model { return NewModel(k.kind, k.layers, dim, hidden, classes, 53) }

		// Reference: forward, loss, then the backward pass that computes
		// every layer's input gradient, layer 0's included, in a
		// workspace that counts its requests.
		fullWS := NewWorkspace()
		ref := newModel()
		logits, ctxs, err := ref.ForwardWS(fullWS, c, feats)
		if err != nil {
			t.Fatal(err)
		}
		grad := fullWS.arena.Matrix(logits.Rows, logits.Cols)
		wantLoss, _ := tensor.SoftmaxCrossEntropy(logits, labels, grad)
		for l := len(ref.Layers) - 1; l >= 0; l-- {
			grad = ref.Layers[l].BackwardLayer(fullWS, c, ctxs[l], grad, true)
			if grad == nil || grad.Rows != c.Needed[l] {
				t.Fatalf("layer %d: full backward returned %v, want %d rows", l, grad, c.Needed[l])
			}
		}

		fresh := newModel()
		pooled := newModel()
		spies := make([]*spyLayer, len(pooled.Layers))
		for l, layer := range pooled.Layers {
			spies[l] = &spyLayer{Layer: layer}
			pooled.Layers[l] = spies[l]
		}
		ws := NewWorkspace()
		lossF, _, err := fresh.LossAndGradWS(NewWorkspace(), c, feats, labels)
		if err != nil {
			t.Fatal(err)
		}
		lossP, _, err := pooled.LossAndGradWS(ws, c, feats, labels)
		if err != nil {
			t.Fatal(err)
		}
		if lossF != wantLoss || lossP != wantLoss {
			t.Errorf("%v: loss fresh %v pooled %v, reference %v", k.kind, lossF, lossP, wantLoss)
		}
		for _, m := range []*Model{fresh, pooled} {
			for pi, p := range m.Params() {
				want := ref.Params()[pi].Grad.Data
				nonzero := false
				for i, v := range p.Grad.Data {
					if math.Float32bits(v) != math.Float32bits(want[i]) {
						t.Fatalf("%v: param %d grad[%d] = %v, full backward %v", k.kind, pi, i, v, want[i])
					}
					nonzero = nonzero || v != 0
				}
				if !nonzero {
					t.Errorf("%v: param %d gradient is all zero — nothing compared", k.kind, pi)
				}
			}
		}

		for l, spy := range spies {
			switch {
			case l == 0 && (spy.needInput || spy.gradIn != nil):
				t.Errorf("%v: layer 0 asked for its input gradient (needInput %v, got %v)", k.kind, spy.needInput, spy.gradIn)
			case l > 0 && (!spy.needInput || spy.gradIn == nil || spy.gradIn.Rows != c.Needed[l]):
				t.Errorf("%v: layer %d needInput %v gradIn %v, want %d rows", k.kind, l, spy.needInput, spy.gradIn, c.Needed[l])
			}
		}
		// Each matrix a fresh workspace hands out costs two grows (slot
		// and backing array), so the skipped requests show up exactly.
		if got := fullWS.Grows() - ws.Grows(); got != 2*k.skipped {
			t.Errorf("%v: dead-gradient pass saves %d workspace grows, want %d (%d matrices)", k.kind, got, 2*k.skipped, k.skipped)
		}
	}
}
