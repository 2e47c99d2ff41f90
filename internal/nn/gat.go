package nn

import (
	"fmt"
	"math"

	"gnnlab/internal/rng"
	"gnnlab/internal/tensor"
)

// GAT is a multi-head graph attention layer [49]: for each head h and
// target t with sampled neighborhood N(t),
//
//	z_i   = W_h h_i
//	e_tj  = LeakyReLU(aL_h·z_t + aR_h·z_j)    j ∈ {t} ∪ N(t)
//	α     = softmax_j(e_tj)
//	o_h,t = Σ_j α_tj z_j
//
// and the heads' outputs are concatenated (each head produces
// OutDim/NumHeads lanes), plus a shared bias. The paper lists GAT among
// the simple 2–3 layer models sample-based systems train (§2); it is
// provided as a library extension beyond the three evaluated models, with
// a hand-written backward pass like the rest of internal/nn.
type GAT struct {
	InDim    int
	OutDim   int
	NumHeads int
	heads    []gatHead
	Bias     *tensor.Param
	// ReLUAfter applies ReLU to the output (hidden layers).
	ReLUAfter bool

	// ctxPool is the reused forward context (one slot suffices: a layer
	// serves one goroutine and one context is live between forward and
	// backward).
	ctxPool gatCtx
}

// gatHead holds one attention head's parameters.
type gatHead struct {
	W     *tensor.Param // InDim × headDim
	AttnL *tensor.Param // 1 × headDim
	AttnR *tensor.Param // 1 × headDim
}

const leakySlope = 0.2

// NewGATMultiHead creates a GAT layer with Glorot-initialized parameters
// whose output concatenates numHeads attention heads of OutDim/numHeads
// lanes each.
func NewGATMultiHead(inDim, outDim, numHeads int, relu bool, r *rng.Rand) *GAT {
	if numHeads <= 0 || outDim%numHeads != 0 {
		panic(fmt.Sprintf("nn: GAT outDim %d not divisible by %d heads", outDim, numHeads))
	}
	headDim := outDim / numHeads
	g := &GAT{InDim: inDim, OutDim: outDim, NumHeads: numHeads, ReLUAfter: relu}
	for h := 0; h < numHeads; h++ {
		hr := r.Split(uint64(h))
		head := gatHead{
			W:     tensor.NewParam(inDim, headDim),
			AttnL: tensor.NewParam(1, headDim),
			AttnR: tensor.NewParam(1, headDim),
		}
		head.W.Value.Glorot(hr)
		head.AttnL.Value.Glorot(hr)
		head.AttnR.Value.Glorot(hr)
		g.heads = append(g.heads, head)
	}
	g.Bias = tensor.NewParam(1, outDim)
	return g
}

// Params returns the trainable parameters.
func (g *GAT) Params() []*tensor.Param {
	var ps []*tensor.Param
	for _, h := range g.heads {
		ps = append(ps, h.W, h.AttnL, h.AttnR)
	}
	return append(ps, g.Bias)
}

// gatHeadCtx is one head's saved forward state.
type gatHeadCtx struct {
	z      *tensor.Matrix // W_h h for every input row
	alphas [][]float32    // per target: attention over {self} ∪ neighbors
	pres   [][]float32    // per target: LeakyReLU'd scores (sign = raw sign)
}

// gatCtx is the saved forward context.
type gatCtx struct {
	hIn    *tensor.Matrix
	heads  []gatHeadCtx
	out    *tensor.Matrix // post-ReLU output, nil when no activation
	numOut int
}

// ForwardLayer implements Layer: it computes activations for the first
// numOut local vertices, drawing buffers from ws and reusing the layer's
// context. The attention rows (pre-activation scores, alphas, dAlpha) are
// variable-length per target and come from the workspace's float slots;
// every element is overwritten before use.
func (g *GAT) ForwardLayer(ws *Workspace, c *Compact, hIn *tensor.Matrix, numOut int) (*tensor.Matrix, any) {
	headDim := g.OutDim / g.NumHeads
	out := ws.arena.Matrix(numOut, g.OutDim)
	ctx := &g.ctxPool
	ctx.hIn, ctx.numOut, ctx.out = hIn, numOut, nil
	ctx.heads = growHeadCtxs(ctx.heads, g.NumHeads)
	for hi, head := range g.heads {
		hc := &ctx.heads[hi]
		hc.z = ws.arena.Matrix(hIn.Rows, headDim)
		tensor.MatMul(hc.z, hIn, head.W.Value)
		hc.alphas = growFloatRows(hc.alphas, numOut)
		hc.pres = growFloatRows(hc.pres, numOut)
		z := hc.z
		aL, aR := head.AttnL.Value.Data, head.AttnR.Value.Data
		off := hi * headDim
		for t := 0; t < numOut; t++ {
			nbrs := c.Neighbors(int32(t))
			pre := ws.arena.Floats(len(nbrs) + 1)
			selfL := dot(aL, z.Row(t))
			pre[0] = leaky(selfL + dot(aR, z.Row(t)))
			for i, nbr := range nbrs {
				pre[i+1] = leaky(selfL + dot(aR, z.Row(int(nbr))))
			}
			alpha := softmaxInto(ws.arena.Floats(len(pre)), pre)
			dst := out.Row(t)[off : off+headDim]
			tensor.AXPY(alpha[0], z.Row(t), dst)
			tensor.FoldRows(dst, alpha[1:], z, nbrs)
			hc.alphas[t] = alpha
			hc.pres[t] = pre
		}
	}
	tensor.AddBiasRows(out, g.Bias.Value.Data)
	if g.ReLUAfter {
		tensor.ReLU(out)
		ctx.out = out
	}
	return out, ctx
}

// growHeadCtxs reslices buf to n head contexts, keeping pooled entries
// (and the buffers they own) when capacity allows.
func growHeadCtxs(buf []gatHeadCtx, n int) []gatHeadCtx {
	if cap(buf) < n {
		return make([]gatHeadCtx, n)
	}
	return buf[:n]
}

// growFloatRows reslices a per-target row table to n entries; stale
// pooled entries are overwritten before use.
func growFloatRows(buf [][]float32, n int) [][]float32 {
	if cap(buf) < n {
		return make([][]float32, n)
	}
	return buf[:n]
}

// BackwardLayer implements Layer: it accumulates parameter gradients;
// the gradient w.r.t. hIn (gradZ @ W_hᵀ summed over heads) is built only
// when needInput is set, and nil is returned otherwise. gradZ itself
// feeds W_h's gradient and is always computed.
func (g *GAT) BackwardLayer(ws *Workspace, c *Compact, saved any, gradOut *tensor.Matrix, needInput bool) *tensor.Matrix {
	ctx := saved.(*gatCtx)
	if ctx.out != nil {
		tensor.ReLUBackward(gradOut, ctx.out)
	}
	tensor.SumRows(gradOut, g.Bias.Grad.Data)

	headDim := g.OutDim / g.NumHeads
	var gradIn *tensor.Matrix
	if needInput {
		gradIn = ws.arena.Matrix(ctx.hIn.Rows, g.InDim)
	}
	for hi, head := range g.heads {
		hc := ctx.heads[hi]
		aL, aR := head.AttnL.Value.Data, head.AttnR.Value.Data
		gAL, gAR := head.AttnL.Grad.Data, head.AttnR.Grad.Data
		gradZ := ws.arena.Matrix(hc.z.Rows, headDim)
		off := hi * headDim

		for t := 0; t < ctx.numOut; t++ {
			nbrs := c.Neighbors(int32(t))
			alpha := hc.alphas[t]
			pre := hc.pres[t]
			gOut := gradOut.Row(t)[off : off+headDim]

			// dα_j = gOut · z_j ; participant j=0 is self.
			dAlpha := ws.arena.Floats(len(alpha))
			dAlpha[0] = dot(gOut, hc.z.Row(t))
			for i, nbr := range nbrs {
				dAlpha[i+1] = dot(gOut, hc.z.Row(int(nbr)))
			}
			// Softmax backward: de_j = α_j (dα_j − Σ_k α_k dα_k).
			var mix float32
			for j := range alpha {
				mix += alpha[j] * dAlpha[j]
			}
			for j := range alpha {
				de := alpha[j] * (dAlpha[j] - mix)
				// LeakyReLU backward: pre's sign equals the raw
				// score's sign since the slope is positive.
				if pre[j] < 0 {
					de *= leakySlope
				}
				row := t
				if j > 0 {
					row = int(nbrs[j-1])
				}
				tensor.AXPY(de, hc.z.Row(t), gAL)
				tensor.AXPY(de, hc.z.Row(row), gAR)
				tensor.AXPY(de, aL, gradZ.Row(t))
				tensor.AXPY(de, aR, gradZ.Row(row))
			}
			// Through the weighted sum: dz_j += α_j gOut.
			tensor.AXPY(alpha[0], gOut, gradZ.Row(t))
			for i, nbr := range nbrs {
				tensor.AXPY(alpha[i+1], gOut, gradZ.Row(int(nbr)))
			}
		}

		// z = hIn @ W_h.
		wg := ws.arena.Matrix(g.InDim, headDim)
		tensor.MatMulATB(wg, ctx.hIn, gradZ)
		tensor.AXPY(1, wg.Data, head.W.Grad.Data)
		if needInput {
			headGradIn := ws.arena.Matrix(ctx.hIn.Rows, g.InDim)
			tensor.MatMulABT(headGradIn, gradZ, head.W.Value)
			tensor.AXPY(1, headGradIn.Data, gradIn.Data)
		}
	}
	return gradIn
}

func dot(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func leaky(x float32) float32 {
	if x < 0 {
		return x * leakySlope
	}
	return x
}

// softmaxInto writes the normalized exponentials of xs into out (same
// length, every element overwritten) and returns it.
func softmaxInto(out, xs []float32) []float32 {
	maxv := xs[0]
	for _, v := range xs[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range xs {
		e := math.Exp(float64(v - maxv))
		out[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range out {
		out[i] *= inv
	}
	return out
}
