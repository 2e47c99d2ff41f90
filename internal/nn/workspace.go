package nn

import "gnnlab/internal/tensor"

// Workspace is the per-trainer activation/gradient arena for the model
// hot path. A forward+backward (or predict) pass requests its working
// tensors — aggregation buffers, layer outputs, attention
// rows, gradient matrices — through the workspace instead of the heap;
// the request sequence is fixed by the model architecture, so after one
// warm-up pass every slot is sized and a steady-state mini-batch
// performs zero heap allocations (pinned by
// TestLossAndGradSteadyStateZeroAllocs).
//
// Ownership rules, mirroring the sampling arena (DESIGN.md "Memory
// discipline"):
//
//   - Everything a workspace pass returns or stores in layer contexts is
//     borrowed: valid only until the same workspace's next pass. Callers
//     that retain logits or gradients must copy them first (parameter
//     gradients live in tensor.Param and are NOT workspace-backed).
//   - A workspace serves one goroutine; data-parallel trainers pool one
//     per replica.
//   - Reuse never changes results: accumulators are zeroed on hand-out,
//     every other buffer is overwritten whole before it is read, and
//     every float fold order is fixed, so a warm workspace and a new one
//     compute bit-identical losses (TestModelWorkspaceMatchesFresh,
//     train's TestTrainPooledMatchesFresh).
type Workspace struct {
	arena tensor.Arena
	ctxs  []any
}

// NewWorkspace returns an empty workspace; buffers are grown on demand.
func NewWorkspace() *Workspace { return &Workspace{} }

// Grows reports cumulative backing-array growths (heap allocations);
// flat in steady state.
func (w *Workspace) Grows() int64 { return w.arena.Grows() }

// reset starts a new pass, recycling all borrowed buffers.
func (w *Workspace) reset() { w.arena.Reset() }

// layerCtxs returns the per-layer context slice for a forward pass.
func (w *Workspace) layerCtxs(n int) []any {
	if cap(w.ctxs) < n {
		w.ctxs = make([]any, n)
	}
	return w.ctxs[:n]
}
