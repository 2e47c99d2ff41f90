package nn

import (
	"fmt"

	"gnnlab/internal/rng"
	"gnnlab/internal/tensor"
)

// AggKind selects the neighborhood aggregation of a convolution layer.
type AggKind int

const (
	// AggGCN averages the vertex together with its sampled neighbors
	// (self-loop-normalized mean) and applies one weight matrix [33].
	AggGCN AggKind = iota
	// AggSAGE combines the vertex's own representation and the mean of
	// its neighbors through separate weight matrices [25].
	AggSAGE
	// AggPinSAGE is the SAGE combiner with the importance-pooled
	// neighborhood PinSAGE builds from random-walk counts [58]; with the
	// walk-based sampler the neighbor multiset already reflects visit
	// importance, so pooling reduces to the mean over it.
	AggPinSAGE
)

// String returns the aggregator name.
func (k AggKind) String() string {
	switch k {
	case AggGCN:
		return "gcn"
	case AggSAGE:
		return "sage"
	case AggPinSAGE:
		return "pinsage"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// Conv is one GNN layer.
type Conv struct {
	Agg    AggKind
	InDim  int
	OutDim int
	// WNbr transforms the aggregated neighborhood (for GCN, the combined
	// self+neighbor mean); WSelf transforms the vertex's own features
	// (SAGE/PinSAGE only, nil for GCN).
	WNbr  *tensor.Param
	WSelf *tensor.Param
	Bias  *tensor.Param
	// ReLUAfter applies ReLU to the output (true for hidden layers).
	ReLUAfter bool

	// ctxPool is the reused forward context. A layer instance serves one
	// goroutine (models are cloned per replica), and only one context per
	// layer is live between a forward and its backward, so a single slot
	// suffices.
	ctxPool convCtx
}

// NewConv creates a layer with Glorot-initialized weights.
func NewConv(agg AggKind, inDim, outDim int, relu bool, r *rng.Rand) *Conv {
	c := &Conv{Agg: agg, InDim: inDim, OutDim: outDim, ReLUAfter: relu}
	c.WNbr = tensor.NewParam(inDim, outDim)
	c.WNbr.Value.Glorot(r)
	if agg != AggGCN {
		c.WSelf = tensor.NewParam(inDim, outDim)
		c.WSelf.Value.Glorot(r)
	}
	c.Bias = tensor.NewParam(1, outDim)
	return c
}

// Params returns the layer's trainable parameters.
func (c *Conv) Params() []*tensor.Param {
	if c.WSelf != nil {
		return []*tensor.Param{c.WNbr, c.WSelf, c.Bias}
	}
	return []*tensor.Param{c.WNbr, c.Bias}
}

// convCtx is the saved forward context needed by Backward.
type convCtx struct {
	hIn    *tensor.Matrix // input activations (Needed[l-1] rows)
	agg    *tensor.Matrix // aggregated neighborhoods (numOut rows)
	out    *tensor.Matrix // post-ReLU output, nil when no activation
	numOut int
}

// ForwardLayer implements Layer: it computes activations for the first
// numOut local vertices from hIn (activations of at least all their
// neighbors), drawing buffers from ws. The returned context is the
// layer's reused ctxPool.
func (c *Conv) ForwardLayer(ws *Workspace, g *Compact, hIn *tensor.Matrix, numOut int) (*tensor.Matrix, any) {
	if hIn.Cols != c.InDim {
		panic(fmt.Sprintf("nn: conv input dim %d, want %d", hIn.Cols, c.InDim))
	}
	agg := ws.arena.Matrix(numOut, c.InDim)
	for v := 0; v < numOut; v++ {
		nbrs := g.Neighbors(int32(v))
		dst := agg.Row(v)
		switch c.Agg {
		case AggGCN:
			copy(dst, hIn.Row(v))
			for _, nbr := range nbrs {
				tensor.AXPY(1, hIn.Row(int(nbr)), dst)
			}
			tensor.Scale(1/float32(len(nbrs)+1), dst)
		default: // SAGE-family: neighbor mean only
			if len(nbrs) > 0 {
				for _, nbr := range nbrs {
					tensor.AXPY(1, hIn.Row(int(nbr)), dst)
				}
				tensor.Scale(1/float32(len(nbrs)), dst)
			}
		}
	}
	out := ws.arena.Matrix(numOut, c.OutDim)
	tensor.MatMul(out, agg, c.WNbr.Value)
	if c.WSelf != nil {
		selfPart := ws.arena.Matrix(numOut, c.OutDim)
		hSelf := ws.arena.View(numOut, c.InDim, hIn.Data[:numOut*c.InDim])
		tensor.MatMul(selfPart, hSelf, c.WSelf.Value)
		tensor.AXPY(1, selfPart.Data, out.Data)
	}
	tensor.AddBiasRows(out, c.Bias.Value.Data)
	ctx := &c.ctxPool
	*ctx = convCtx{hIn: hIn, agg: agg, numOut: numOut}
	if c.ReLUAfter {
		tensor.ReLU(out)
		ctx.out = out
	}
	return out, ctx
}

// BackwardLayer implements Layer: it consumes the gradient w.r.t. this
// layer's output and accumulates the parameter gradients. When needInput
// is set it also returns the gradient w.r.t. hIn (full Needed[l-1] rows;
// rows beyond numOut receive only scattered neighbor gradients). Nothing
// on the input-gradient path feeds a parameter of this layer, so skipping
// it (returning nil) leaves every Param.Grad bit-identical.
func (c *Conv) BackwardLayer(ws *Workspace, g *Compact, saved any, gradOut *tensor.Matrix, needInput bool) *tensor.Matrix {
	ctx := saved.(*convCtx)
	if ctx.out != nil {
		tensor.ReLUBackward(gradOut, ctx.out)
	}
	// Bias gradient.
	tensor.SumRows(gradOut, c.Bias.Grad.Data)
	// Weight gradients.
	wg := ws.arena.Matrix(c.InDim, c.OutDim)
	tensor.MatMulATB(wg, ctx.agg, gradOut)
	tensor.AXPY(1, wg.Data, c.WNbr.Grad.Data)
	if c.WSelf != nil {
		hSelf := ws.arena.View(ctx.numOut, c.InDim, ctx.hIn.Data[:ctx.numOut*c.InDim])
		wsg := ws.arena.Matrix(c.InDim, c.OutDim)
		tensor.MatMulATB(wsg, hSelf, gradOut)
		tensor.AXPY(1, wsg.Data, c.WSelf.Grad.Data)
	}
	if !needInput {
		return nil
	}

	gradIn := ws.arena.Matrix(ctx.hIn.Rows, c.InDim)
	// Through the aggregation: gradAgg = gradOut @ WNbrᵀ, scattered back.
	gradAgg := ws.arena.Matrix(ctx.numOut, c.InDim)
	tensor.MatMulABT(gradAgg, gradOut, c.WNbr.Value)
	for v := 0; v < ctx.numOut; v++ {
		nbrs := g.Neighbors(int32(v))
		src := gradAgg.Row(v)
		switch c.Agg {
		case AggGCN:
			w := 1 / float32(len(nbrs)+1)
			tensor.AXPY(w, src, gradIn.Row(v))
			for _, nbr := range nbrs {
				tensor.AXPY(w, src, gradIn.Row(int(nbr)))
			}
		default:
			if len(nbrs) > 0 {
				w := 1 / float32(len(nbrs))
				for _, nbr := range nbrs {
					tensor.AXPY(w, src, gradIn.Row(int(nbr)))
				}
			}
		}
	}
	// Through the self path (SAGE-family).
	if c.WSelf != nil {
		gradSelf := ws.arena.Matrix(ctx.numOut, c.InDim)
		tensor.MatMulABT(gradSelf, gradOut, c.WSelf.Value)
		tensor.AXPY(1, gradSelf.Data, gradIn.Data[:ctx.numOut*c.InDim])
	}
	return gradIn
}
