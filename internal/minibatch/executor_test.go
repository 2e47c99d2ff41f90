package minibatch

import (
	"math"
	"testing"

	"gnnlab/internal/cache"
	"gnnlab/internal/feature"
	"gnnlab/internal/gen"
	"gnnlab/internal/nn"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/tensor"
	"gnnlab/internal/workload"
)

// convDataset returns a small labelled community graph for fast tests.
func convDataset(t *testing.T) *gen.Dataset {
	t.Helper()
	cfg, err := gen.PresetConfig(gen.PresetConv)
	if err != nil {
		t.Fatal(err)
	}
	cfg = gen.ScaleDown(cfg, 4)
	cfg.MaterializeFeatures = true
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// newStore builds a feature store over d, with a degree-ranked cache of
// 10% of the vertices when withCache is set.
func newStore(t *testing.T, d *gen.Dataset, withCache bool) *feature.Store {
	t.Helper()
	store, err := feature.NewStore(d.Features, d.FeatureDim)
	if err != nil {
		t.Fatal(err)
	}
	if withCache {
		slots := d.NumVertices() / 10
		table, err := cache.Load(cache.DegreeHotness(d.Graph).RankTop(slots), slots, d.NumVertices(), int64(d.FeatureDim)*4)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.EnableCache(table); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// sameParams reports the first parameter element whose bits differ.
func sameParams(t *testing.T, step int, got, want *nn.Model) {
	t.Helper()
	gp, wp := got.Params(), want.Params()
	for i := range wp {
		for j, w := range wp[i].Value.Data {
			if g := gp[i].Value.Data[j]; math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("step %d: param %d[%d] = %v, reference %v", step, i, j, g, w)
			}
		}
	}
}

// TestExecutorMatchesFreshReference is the bit-identicality contract of
// the one pooled chain: consecutive sample→compact→gather→LossAndGrad→
// Adam.Step rounds through an Executor equal the hand-sequenced
// layer-level references with a new arena at every stage (a new
// ClonePooled, a zero nn.Compact and tensor.Matrix, a new nn.Workspace)
// in loss, hit/miss counts and every parameter after each step, for
// every model, cache off and on; so do Predict and Classify. Odd rounds
// enter through Accept with the reference's sample, even ones through
// the executor's own sampler.
func TestExecutorMatchesFreshReference(t *testing.T) {
	d := convDataset(t)
	const batch, steps = 32, 8
	for _, kind := range []workload.ModelKind{workload.GCN, workload.GraphSAGE, workload.PinSAGE, workload.GAT} {
		for _, withCache := range []bool{false, true} {
			name := kind.String()
			if withCache {
				name += "_cache"
			}
			t.Run(name, func(t *testing.T) {
				spec := workload.Spec{Kind: kind, HiddenDim: 16, BatchSize: batch}
				alg := spec.NewSampler()
				sampling.Prepare(alg, d.Graph)
				newModel := func() *nn.Model {
					return nn.NewModel(kind, spec.NumLayers(), d.FeatureDim, spec.HiddenDim, d.NumClasses, 11)
				}

				model, ref := newModel(), newModel()
				opt, refOpt := tensor.NewAdam(0.01, model.Params()), tensor.NewAdam(0.01, ref.Params())
				ex := New(alg, d.Graph, newStore(t, d, withCache), d.Labels)
				refStore := newStore(t, d, withCache)

				// reference runs stages 1–3 of round k, each in a new arena.
				reference := func(k int) (*sampling.Sample, *nn.Compact, *tensor.Matrix, []int32, int, int) {
					s := sampling.ClonePooled(alg).Sample(d.Graph, d.TrainSet[k*batch:(k+1)*batch], rng.New(uint64(100+k)))
					var g nn.Compact
					if err := nn.NewCompactInto(&g, s); err != nil {
						t.Fatal(err)
					}
					var feats tensor.Matrix
					hits, misses := refStore.GatherInto(&feats, s)
					return s, &g, &feats, nn.SeedLabelsInto(nil, s, d.Labels), hits, misses
				}
				// stage runs the same stages through the executor.
				stage := func(k int, queued *sampling.Sample) (hits, misses int) {
					if queued != nil {
						ex.Accept(queued)
					} else {
						ex.Sample(d.TrainSet[k*batch:(k+1)*batch], rng.New(uint64(100+k)))
					}
					if err := ex.Compact(); err != nil {
						t.Fatal(err)
					}
					return ex.Gather()
				}

				for k := 0; k < steps; k++ {
					s, g, feats, labels, wantHits, wantMisses := reference(k)
					wantLoss, _, err := ref.LossAndGradWS(nn.NewWorkspace(), g, feats, labels)
					if err != nil {
						t.Fatal(err)
					}
					refOpt.Step()

					var queued *sampling.Sample
					if k%2 == 1 {
						queued = s
					}
					hits, misses := stage(k, queued)
					loss, err := ex.LossAndGrad(model)
					if err != nil {
						t.Fatal(err)
					}
					opt.Step()

					if hits != wantHits || misses != wantMisses {
						t.Fatalf("step %d: gather %d/%d, reference %d/%d", k, hits, misses, wantHits, wantMisses)
					}
					if math.Float64bits(loss) != math.Float64bits(wantLoss) {
						t.Fatalf("step %d: loss %v, reference %v", k, loss, wantLoss)
					}
					sameParams(t, k, model, ref)
				}

				_, g, feats, labels, _, _ := reference(steps)
				stage(steps, nil)
				wantCorrect, err := ref.PredictWS(nn.NewWorkspace(), g, feats, labels)
				if err != nil {
					t.Fatal(err)
				}
				correct, err := ex.Predict(model)
				if err != nil {
					t.Fatal(err)
				}
				if correct != wantCorrect {
					t.Errorf("Predict = %d correct, reference %d", correct, wantCorrect)
				}
				wantClasses, err := ref.ClassifyWS(nn.NewWorkspace(), g, feats, nil)
				if err != nil {
					t.Fatal(err)
				}
				classes, err := ex.Classify(model)
				if err != nil {
					t.Fatal(err)
				}
				if len(classes) != len(wantClasses) {
					t.Fatalf("Classify returned %d classes, reference %d", len(classes), len(wantClasses))
				}
				for i := range wantClasses {
					if classes[i] != wantClasses[i] {
						t.Errorf("seed %d: class %d, reference %d", i, classes[i], wantClasses[i])
					}
				}

				if passes, _, _ := ex.Stats(); passes != steps {
					t.Errorf("Stats: %d LossAndGrad passes after %d steps", passes, steps)
				}
			})
		}
	}
}
