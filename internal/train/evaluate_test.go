package train

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"gnnlab/internal/cache"
	"gnnlab/internal/gen"
	"gnnlab/internal/minibatch"
	"gnnlab/internal/nn"
	"gnnlab/internal/obs"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/tensor"
	"gnnlab/internal/workload"
)

// serialEvaluate is evaluation as it ran before the eval samples were
// drawn once per run: every epoch it re-samples the eval set from a new
// rng.New(Seed^0xEA11) stream on trainer 0's executor and predicts with
// the master alone.
func serialEvaluate(model *nn.Model, ex *minibatch.Executor, evalSet []int32, opts Options) (float64, error) {
	if len(evalSet) == 0 {
		return 0, nil
	}
	correct := 0
	er := rng.New(opts.Seed ^ 0xEA11)
	for start := 0; start < len(evalSet); start += opts.BatchSize {
		end := min(start+opts.BatchSize, len(evalSet))
		ex.Sample(evalSet[start:end], er)
		if err := ex.Compact(); err != nil {
			return 0, err
		}
		ex.Gather()
		c, err := ex.Predict(model)
		if err != nil {
			return 0, err
		}
		correct += c
	}
	return float64(correct) / float64(len(evalSet)), nil
}

// serialEvalTrain is Train with serialEvaluate in place of evaluate and
// nothing else changed: the same set-up, executors, Sampler stream and
// runEpochSteps, with no faults and no target.
func serialEvalTrain(t *testing.T, d *gen.Dataset, opts Options) *Result {
	t.Helper()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	opts = opts.withDefaults()
	spec := workload.Spec{Kind: opts.Model, HiddenDim: opts.HiddenDim, BatchSize: opts.BatchSize}
	alg := spec.NewSampler()
	sampling.Prepare(alg, d.Graph)
	workers := make([]*nn.Model, opts.NumTrainers)
	for i := range workers {
		workers[i] = nn.NewModel(opts.Model, spec.NumLayers(), d.FeatureDim, opts.HiddenDim, d.NumClasses, opts.Seed)
	}
	opt := tensor.NewAdam(opts.LR, workers[0].Params())
	store, err := buildStore(d, alg, opts)
	check(err)
	execs := make([]*minibatch.Executor, opts.NumTrainers)
	for i := range execs {
		execs[i] = minibatch.New(alg, d.Graph, store, d.Labels)
	}
	evalSet := holdout(d, opts.EvalSize, opts.Seed)
	r := rng.New(opts.Seed)
	res := &Result{Model: workers[0]}
	updates := 0
	for epoch := 0; epoch < opts.MaxEpochs; epoch++ {
		batches := sampling.Batches(d.TrainSet, opts.BatchSize, r.Split(uint64(epoch)))
		var stream *sampleStream
		if opts.NumSamplers > 0 {
			stream = produceSamples(d, alg, batches, opts, epoch)
		}
		loss, steps, err := runEpochSteps(workers, opt, execs, nil, stream, batches, opts, epoch, -1)
		check(err)
		updates += steps
		acc, err := serialEvaluate(workers[0], execs[0], evalSet, opts)
		check(err)
		res.History = append(res.History, EpochRecord{Epoch: epoch, Loss: loss / float64(len(batches)), EvalAcc: acc, Updates: updates})
		res.FinalAccuracy, res.CacheHitRate = acc, store.HitRate()
	}
	return res
}

// TestEvaluateMatchesSerialReference pins evaluation from samples drawn
// once, fanned out over the Trainers, to the per-epoch serial evaluation
// it replaced: the history (EvalAcc to the bit), the cache hit rate, which
// counts the eval gathers, and the checkpoint bytes are equal at 1, 2 and
// 3 Trainers (3 does not divide the 8 eval batches), cache off and on,
// with inline sampling and one Sampler.
func TestEvaluateMatchesSerialReference(t *testing.T) {
	d := convDataset(t)
	if n := len(holdout(d, 1000, 42)); n != 1000 { // 8 batches of 128 at the default seed
		t.Fatalf("holdout of %d vertices, want 1000", n)
	}
	for _, trainers := range []int{1, 2, 3} {
		for _, cacheRatio := range []float64{0, 0.05} {
			for _, samplers := range []int{0, 1} {
				t.Run(fmt.Sprintf("%dT_%dS_cache%v", trainers, samplers, cacheRatio), func(t *testing.T) {
					opts := Options{
						Model:          workload.GraphSAGE,
						NumTrainers:    trainers,
						NumSamplers:    samplers,
						CacheRatio:     cacheRatio,
						CachePolicy:    cache.PolicyDegree,
						TargetAccuracy: 2, // unreachable: both epochs run
						MaxEpochs:      2,
						EvalSize:       1000,
					}
					want := serialEvalTrain(t, d, opts)
					got, err := Train(d, opts)
					if err != nil {
						t.Fatal(err)
					}
					if len(got.History) != len(want.History) {
						t.Fatalf("%d epochs, reference %d", len(got.History), len(want.History))
					}
					for i, w := range want.History {
						g := got.History[i]
						if g != w || math.Float64bits(g.EvalAcc) != math.Float64bits(w.EvalAcc) {
							t.Errorf("epoch %d: %+v, reference %+v", i, g, w)
						}
					}
					if got.CacheHitRate != want.CacheHitRate {
						t.Errorf("hit rate %v, reference %v", got.CacheHitRate, want.CacheHitRate)
					}
					var ckGot, ckWant bytes.Buffer
					if err := got.Model.SaveCheckpoint(&ckGot); err != nil {
						t.Fatal(err)
					}
					if err := want.Model.SaveCheckpoint(&ckWant); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(ckGot.Bytes(), ckWant.Bytes()) {
						t.Error("checkpoints differ from the reference's")
					}
				})
			}
		}
	}
}

// TestEvaluateSpansOnEveryTrainer checks the trace of a run at 3
// Trainers: every epoch opens one "evaluate" span on each trainer's lane,
// and their batch counts cover the 8 eval batches.
func TestEvaluateSpansOnEveryTrainer(t *testing.T) {
	d := convDataset(t)
	rec := obs.NewRecorder()
	const epochs = 2
	if _, err := Train(d, Options{Model: workload.GCN, NumTrainers: 3, TargetAccuracy: 2, MaxEpochs: epochs, EvalSize: 1000, Obs: rec}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	lane := map[int]string{}
	spans := map[string]int{}
	batches := 0.0
	for _, e := range trace.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			lane[e.Tid], _ = e.Args["name"].(string)
		case e.Name == "evaluate":
			spans[lane[e.Tid]]++
			b, _ := e.Args["batches"].(float64)
			batches += b
		}
	}
	for i := 0; i < 3; i++ {
		if name := fmt.Sprintf("trainer-%d", i); spans[name] != epochs {
			t.Errorf("%s: %d evaluate spans, want %d", name, spans[name], epochs)
		}
	}
	if len(spans) != 3 || batches != 8*epochs {
		t.Errorf("evaluate spans on lanes %v over %v batches, want trainer-0..2 and %d", spans, batches, 8*epochs)
	}
}
