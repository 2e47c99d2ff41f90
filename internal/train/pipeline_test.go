package train

import (
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"gnnlab/internal/gen"
	"gnnlab/internal/graph"
	"gnnlab/internal/minibatch"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/workload"
)

// TestPipelinedSamplingMatchesInline verifies that the live factored
// pipeline (concurrent Sampler goroutines + the global queue) produces
// exactly the same samples as inline sampling — sampleOne over a pooled
// executor, as runEpochSteps does with no Samplers: per-batch RNG streams
// are keyed by (epoch, batch), so goroutine scheduling cannot change what
// is sampled.
func TestPipelinedSamplingMatchesInline(t *testing.T) {
	d := convDataset(t)
	spec := workload.Spec{Kind: workload.GraphSAGE, BatchSize: 64}
	alg := spec.NewSampler()
	opts := Options{Seed: 11, BatchSize: 64, NumSamplers: 4}.withDefaults()

	batches := sampling.Batches(d.TrainSet, 64, rng.New(3))
	ex := minibatch.New(alg, d.Graph, nil, nil)
	inline := make([][]int32, len(batches))
	for i, b := range batches {
		s, err := sampleOne(ex.Sample, b, i, opts, 0)
		if err != nil {
			t.Fatal(err)
		}
		// The executor reuses its buffers on the next Sample.
		inline[i] = slices.Clone(s.Input)
	}
	piped, err := produceSamples(d, alg, batches, opts, 0).take(len(batches))
	if err != nil {
		t.Fatal(err)
	}
	if len(inline) != len(piped) {
		t.Fatalf("batch counts differ: %d vs %d", len(inline), len(piped))
	}
	for i := range inline {
		if !slices.Equal(inline[i], piped[i].Input) {
			t.Fatalf("batch %d: inputs differ (%d vs %d vertices)", i, len(inline[i]), len(piped[i].Input))
		}
	}
}

func TestTrainRejectsUnlabelledDataset(t *testing.T) {
	d, err := gen.LoadPresetScaled(gen.PresetPA, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(d, Options{Model: workload.GCN}); err == nil {
		t.Error("Train accepted a dataset without labels/features")
	}
}

func TestHoldoutDisjointFromTrainSet(t *testing.T) {
	d := convDataset(t)
	eval := holdout(d, 300, 9)
	inTrain := map[int32]bool{}
	for _, v := range d.TrainSet {
		inTrain[v] = true
	}
	seen := map[int32]bool{}
	for _, v := range eval {
		if inTrain[v] {
			t.Fatalf("eval vertex %d is in the training set", v)
		}
		if seen[v] {
			t.Fatalf("eval vertex %d duplicated", v)
		}
		seen[v] = true
	}
	if len(eval) != 300 {
		t.Errorf("holdout size %d, want 300", len(eval))
	}
}

func TestTrainDeterministicInline(t *testing.T) {
	d := convDataset(t)
	run := func() *Result {
		res, err := Train(d, Options{
			Model:          workload.GraphSAGE,
			TargetAccuracy: 1.01,
			MaxEpochs:      2,
			EvalSize:       100,
			NumSamplers:    0, // inline: bit-deterministic
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.History {
		if a.History[i].Loss != b.History[i].Loss || a.History[i].EvalAcc != b.History[i].EvalAcc {
			t.Fatalf("epoch %d differs: %+v vs %+v", i, a.History[i], b.History[i])
		}
	}
}

func TestGCNAndPinSAGEModelsTrain(t *testing.T) {
	d := convDataset(t)
	for _, kind := range []workload.ModelKind{workload.GCN, workload.PinSAGE} {
		res, err := Train(d, Options{
			Model:          kind,
			TargetAccuracy: 0.5,
			MaxEpochs:      10,
			EvalSize:       200,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.FinalAccuracy < 0.4 {
			t.Errorf("%v: final accuracy %.3f suspiciously low", kind, res.FinalAccuracy)
		}
	}
}

func TestGATModelTrains(t *testing.T) {
	d := convDataset(t)
	res, err := Train(d, Options{
		Model:          workload.GAT,
		TargetAccuracy: 0.5,
		MaxEpochs:      10,
		EvalSize:       200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.4 {
		t.Errorf("GAT final accuracy %.3f suspiciously low", res.FinalAccuracy)
	}
}

func TestLiveCacheHitRate(t *testing.T) {
	d := convDataset(t)
	res, err := Train(d, Options{
		Model:          workload.GraphSAGE,
		TargetAccuracy: 1.01,
		MaxEpochs:      2,
		EvalSize:       100,
		CacheRatio:     0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The community graph's footprint is nearly uniform by design, so
	// the live hit rate lands at ~the cache ratio rather than above it.
	if res.CacheHitRate < 0.2 {
		t.Errorf("live cache hit rate %.3f below the 25%% cache ratio", res.CacheHitRate)
	}
	// Caching must not change learning: same loss history as uncached.
	plain, err := Train(d, Options{
		Model:          workload.GraphSAGE,
		TargetAccuracy: 1.01,
		MaxEpochs:      2,
		EvalSize:       100,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.History {
		if res.History[i].Loss != plain.History[i].Loss {
			t.Fatalf("epoch %d: cached loss %v != uncached %v", i, res.History[i].Loss, plain.History[i].Loss)
		}
	}
}

func TestParallelTrainersDeterministic(t *testing.T) {
	d := convDataset(t)
	run := func() *Result {
		res, err := Train(d, Options{
			Model:          workload.GraphSAGE,
			NumTrainers:    3,
			TargetAccuracy: 1.01,
			MaxEpochs:      2,
			EvalSize:       100,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.History {
		if a.History[i].Loss != b.History[i].Loss || a.History[i].EvalAcc != b.History[i].EvalAcc {
			t.Fatalf("parallel training not deterministic at epoch %d: %+v vs %+v",
				i, a.History[i], b.History[i])
		}
	}
}

func TestParallelTrainersConverge(t *testing.T) {
	d := convDataset(t)
	res, err := Train(d, Options{
		Model:          workload.GraphSAGE,
		NumTrainers:    4,
		NumSamplers:    2,
		TargetAccuracy: 0.85,
		MaxEpochs:      30,
		EvalSize:       300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("4-way data parallelism did not converge (final %.3f)", res.FinalAccuracy)
	}
}

// panicSampler implements sampling.Algorithm and panics on a chosen batch,
// standing in for a buggy user-defined sampling scheme (§5.1). Clones get
// their own inner sampler (scratch state) but share the call counter, so
// the Nth Sample overall still panics whichever worker issues it.
type panicSampler struct {
	inner   sampling.Algorithm
	calls   *int32
	panicAt int32
}

func (p *panicSampler) Name() string { return "panic-sampler" }
func (p *panicSampler) NumHops() int { return p.inner.NumHops() }
func (p *panicSampler) Clone() sampling.Algorithm {
	return &panicSampler{inner: sampling.ClonePooled(p.inner), calls: p.calls, panicAt: p.panicAt}
}
func (p *panicSampler) Sample(g graph.View, seeds []int32, r *rng.Rand) *sampling.Sample {
	if atomic.AddInt32(p.calls, 1) == p.panicAt {
		panic("injected sampler failure")
	}
	return p.inner.Sample(g, seeds, r)
}

func TestSamplerPanicSurfacesAsError(t *testing.T) {
	d := convDataset(t)
	alg := &panicSampler{inner: sampling.NewKHop([]int{5, 3}, sampling.FisherYates), calls: new(int32), panicAt: 3}
	batches := sampling.Batches(d.TrainSet, 64, rng.New(3))
	opts := Options{Seed: 11, BatchSize: 64, NumSamplers: 3}.withDefaults()
	stream := produceSamples(d, alg, batches, opts, 0)
	_, err := stream.take(len(batches))
	if err == nil {
		t.Fatal("panicking sampler did not surface an error")
	}
	if !strings.Contains(err.Error(), "sampler panicked") {
		t.Errorf("error %q lacks panic context", err)
	}
}
