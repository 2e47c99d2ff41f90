// Package minibatch owns the one Sample → Compact → Gather → Forward chain
// every live path runs: a training step, an evaluation batch and a serving
// microbatch are the same stages over the same pooled buffers, differing
// only in the last call. The Executor decides who owns a mini-batch's
// buffers and in what order the stages run; its callers never sequence the
// pooled layer calls themselves.
//
// Ownership: the current sample and everything derived from it — Compact,
// feature matrix, seed labels, logits, classes — are valid until the
// executor's next Sample or Accept. A warm executor allocates nothing.
// An Executor serves one goroutine; data-parallel trainers hold one each.
package minibatch

import (
	"gnnlab/internal/feature"
	"gnnlab/internal/graph"
	"gnnlab/internal/nn"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/tensor"
)

// Executor runs the mini-batch stages over buffers it owns.
type Executor struct {
	g      graph.View
	store  *feature.Store
	labels []int32 // per-vertex labels; nil when the caller only classifies

	alg        sampling.Algorithm // pooled clone, private to this executor
	smp        *sampling.Sample
	cmp        nn.Compact
	feats      tensor.Matrix
	seedLabels []int32
	classes    []int32
	ws         *nn.Workspace

	passes, reuses int64 // see Stats
}

// New returns an executor sampling g with a pooled private clone of alg
// and gathering from store; labels is the per-vertex label column.
func New(alg sampling.Algorithm, g graph.View, store *feature.Store, labels []int32) *Executor {
	return &Executor{g: g, store: store, labels: labels, alg: sampling.ClonePooled(alg), ws: nn.NewWorkspace()}
}

// Sample runs the Sample stage on the executor's own sampler and makes
// the result the current sample.
func (e *Executor) Sample(seeds []int32, r *rng.Rand) *sampling.Sample {
	e.smp = e.alg.Sample(e.g, seeds, r)
	return e.smp
}

// Accept makes a sample produced elsewhere (a Sampler goroutine's, handed
// over through the global queue) the current sample, in place of Sample.
func (e *Executor) Accept(s *sampling.Sample) { e.smp = s }

// Compact views the current sample for computation: its per-vertex
// sampled-neighbor CSR and, when the executor has labels, the seeds'
// labels. It fails on a sample that carries no CSR over its inputs.
func (e *Executor) Compact() error {
	if err := nn.NewCompactInto(&e.cmp, e.smp); err != nil {
		return err
	}
	if e.labels != nil {
		e.seedLabels = nn.SeedLabelsInto(e.seedLabels, e.smp, e.labels)
	}
	return nil
}

// Gather runs the Extract stage for the current sample and returns the
// feature-cache hit and miss counts.
func (e *Executor) Gather() (hits, misses int) {
	return e.store.GatherInto(&e.feats, e.smp)
}

// LossAndGrad runs forward+loss+backward on m for the compacted, gathered
// batch and returns the mean loss; parameter gradients accumulate in m.
func (e *Executor) LossAndGrad(m *nn.Model) (float64, error) {
	grows := e.ws.Grows()
	loss, _, err := m.LossAndGradWS(e.ws, &e.cmp, &e.feats, e.seedLabels)
	e.passes++
	if e.ws.Grows() == grows {
		e.reuses++
	}
	return loss, err
}

// Predict runs forward on m and returns how many of the batch's seeds it
// labelled correctly.
func (e *Executor) Predict(m *nn.Model) (int, error) {
	return m.PredictWS(e.ws, &e.cmp, &e.feats, e.seedLabels)
}

// Classify runs forward on m and returns the predicted class of each
// seed, in seed order.
func (e *Executor) Classify(m *nn.Model) ([]int32, error) {
	var err error
	e.classes, err = m.ClassifyWS(e.ws, &e.cmp, &e.feats, e.classes)
	return e.classes, err
}

// Stats reports the LossAndGrad passes run, how many of them grew no
// workspace buffer, and the workspace's growths over passes of any kind.
func (e *Executor) Stats() (passes, reuses, grows int64) {
	return e.passes, e.reuses, e.ws.Grows()
}
