package train

import (
	"bytes"
	"testing"

	"gnnlab/internal/cache"
	"gnnlab/internal/fault"
	"gnnlab/internal/feature"
	"gnnlab/internal/gen"
	"gnnlab/internal/minibatch"
	"gnnlab/internal/nn"
	"gnnlab/internal/obs"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/tensor"
	"gnnlab/internal/workload"
)

// referenceTrain is Train spelled out on one goroutine over the
// layer-level calls with a new arena at every stage of every mini-batch —
// a new ClonePooled, a zero nn.Compact and tensor.Matrix, a new
// nn.Workspace — so no buffer is ever reused, and with no executor and no
// queue. It mirrors Train's seed derivations and gradient exchange order,
// nothing else.
func referenceTrain(t *testing.T, d *gen.Dataset, opts Options) *Result {
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
	store, err := buildStore(d, alg, opts)
	check(err)
	workers := make([]*nn.Model, opts.NumTrainers) // same seed ⇒ same initial parameters
	for i := range workers {
		workers[i] = nn.NewModel(opts.Model, spec.NumLayers(), d.FeatureDim, opts.HiddenDim, d.NumClasses, opts.Seed)
	}
	model := workers[0]
	opt := tensor.NewAdam(opts.LR, model.Params())
	evalSet := holdout(d, opts.EvalSize, opts.Seed)
	r := rng.New(opts.Seed)
	fresh := func(seeds []int32, r *rng.Rand) (*nn.Compact, *tensor.Matrix, []int32) {
		s := sampling.ClonePooled(alg).Sample(d.Graph, seeds, r)
		var g nn.Compact
		check(nn.NewCompactInto(&g, s))
		var feats tensor.Matrix
		store.GatherInto(&feats, s)
		return &g, &feats, nn.SeedLabelsInto(nil, s, d.Labels)
	}

	res := &Result{Model: model}
	updates := 0
	for epoch := 0; epoch < opts.MaxEpochs; epoch++ {
		batches := sampling.Batches(d.TrainSet, opts.BatchSize, r.Split(uint64(epoch)))
		var epochLoss float64
		for start := 0; start < len(batches); start += len(workers) {
			width := min(len(workers), len(batches)-start)
			for i := 0; i < width; i++ {
				idx := start + i
				g, feats, labels := fresh(batches[idx], rng.New(opts.Seed^uint64(epoch)<<20^uint64(idx)))
				loss, _, err := workers[i].LossAndGradWS(nn.NewWorkspace(), g, feats, labels)
				check(err)
				epochLoss += loss
			}
			for i := 1; i < width; i++ {
				check(nn.AccumulateGrads(model.Params(), workers[i].Params()))
			}
			averageGrads(opt.Params(), width)
			opt.Step()
			updates++
			for _, rep := range workers[1:] {
				check(nn.CopyParams(rep.Params(), model.Params()))
			}
		}

		correct, total := 0, 0
		er := rng.New(opts.Seed ^ 0xEA11)
		for start := 0; start < len(evalSet); start += opts.BatchSize {
			g, feats, labels := fresh(evalSet[start:min(start+opts.BatchSize, len(evalSet))], er)
			c, err := model.PredictWS(nn.NewWorkspace(), g, feats, labels)
			check(err)
			correct += c
			total += len(labels)
		}
		acc := float64(correct) / float64(total)
		res.History = append(res.History, EpochRecord{Epoch: epoch, Loss: epochLoss / float64(len(batches)), EvalAcc: acc, Updates: updates})
		res.FinalAccuracy, res.CacheHitRate = acc, store.HitRate()
	}
	return res
}

// TestTrainPooledMatchesFresh is the end-to-end bit-identicality contract
// of the pooled training path: for every data-parallel width and cache
// configuration — executors sampling on demand or accepting queued
// samples — Train produces exactly the loss history, accuracy trajectory,
// hit rate and final parameters of referenceTrain's sequential
// fresh-allocation run, and surfaces its buffer reuse in the counters.
func TestTrainPooledMatchesFresh(t *testing.T) {
	d := convDataset(t)
	cases := []struct {
		name       string
		trainers   int
		samplers   int
		cacheRatio float64
	}{
		{"1trainer", 1, 0, 0},
		{"2trainers", 2, 0, 0},
		{"4trainers", 4, 0, 0},
		{"1trainer_cache", 1, 0, 0.05},
		{"2trainers_cache", 2, 0, 0.05},
		{"4trainers_cache", 4, 0, 0.05},
		{"2trainers_2samplers", 2, 2, 0.05},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := Options{
				Model:          workload.GraphSAGE,
				NumTrainers:    tc.trainers,
				NumSamplers:    tc.samplers,
				CacheRatio:     tc.cacheRatio,
				CachePolicy:    cache.PolicyDegree,
				TargetAccuracy: 1.01, // unreachable: fixed-length runs
				MaxEpochs:      2,
				EvalSize:       200,
			}
			resF := referenceTrain(t, d, base)
			pooled := base
			rec := obs.NewRecorder()
			pooled.Obs = rec
			resP, err := Train(d, pooled)
			if err != nil {
				t.Fatal(err)
			}

			if len(resF.History) != len(resP.History) {
				t.Fatalf("history lengths %d vs %d", len(resF.History), len(resP.History))
			}
			for i, hf := range resF.History {
				hp := resP.History[i]
				if hf != hp {
					t.Errorf("epoch %d: fresh %+v != pooled %+v", i, hf, hp)
				}
			}
			if resF.CacheHitRate != resP.CacheHitRate {
				t.Errorf("hit rate: fresh %v != pooled %v", resF.CacheHitRate, resP.CacheHitRate)
			}
			if resF.FinalAccuracy != resP.FinalAccuracy {
				t.Errorf("final accuracy: fresh %v != pooled %v", resF.FinalAccuracy, resP.FinalAccuracy)
			}
			var ckF, ckP bytes.Buffer
			if err := resF.Model.SaveCheckpoint(&ckF); err != nil {
				t.Fatal(err)
			}
			if err := resP.Model.SaveCheckpoint(&ckP); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ckF.Bytes(), ckP.Bytes()) {
				t.Error("final checkpoints differ between fresh and pooled runs")
			}

			// The pooled run surfaces its reuse in the obs counters.
			snap := rec.Registry().Snapshot()
			if n := snap.Counters["train.scratch_samples"]; n == 0 {
				t.Error("train.scratch_samples counter not exported")
			}
			if r := snap.Counters["train.scratch_reuses"]; r == 0 {
				t.Error("train.scratch_reuses = 0: workspaces never reached steady state")
			}
			if r := snap.Counters["feature.gather_reuse"]; r == 0 {
				t.Error("feature.gather_reuse = 0: gather buffers never reused")
			}
		})
	}
}

// TestTrainPooledRecoversFromCrash re-checks the fault-injection path with
// pooled buffers: a crashed epoch restores the checkpoint and the final
// history matches an uninjected pooled run bit for bit.
func TestTrainPooledRecoversFromCrash(t *testing.T) {
	d := convDataset(t)
	base := Options{
		Model:          workload.GraphSAGE,
		NumTrainers:    2,
		TargetAccuracy: 1.01,
		MaxEpochs:      2,
		EvalSize:       200,
	}
	clean, err := Train(d, base)
	if err != nil {
		t.Fatal(err)
	}
	injected := base
	injected.Faults = &fault.Plan{Events: []fault.Event{
		{Kind: fault.KindTrainerCrash, Epoch: 1, At: 0.5},
	}}
	res, err := Train(d, injected)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", res.Recoveries)
	}
	for i, hc := range clean.History {
		if res.History[i] != hc {
			t.Errorf("epoch %d: recovered %+v != clean %+v", i, res.History[i], hc)
		}
	}
}

// TestMinibatchSteadyStateZeroAllocs pins a trainer's whole per-minibatch
// path through its executor — pooled sample, Compact rebuild, feature
// gather, label gather, forward+backward, gradient averaging and the
// optimizer step — at zero heap allocations once the executor is warm,
// with and without a feature cache. (Dims are kept small so tensor.MatMul
// stays on its serial path; the parallel path spawns goroutines, which
// allocate.)
func TestMinibatchSteadyStateZeroAllocs(t *testing.T) {
	d := convDataset(t)
	spec := workload.Spec{Kind: workload.GraphSAGE, HiddenDim: 16, BatchSize: 16}
	alg := spec.NewSampler()
	sampling.Prepare(alg, d.Graph)
	r := rng.New(7)
	start := r.State()

	for _, withCache := range []bool{false, true} {
		name := "nocache"
		if withCache {
			name = "cache"
		}
		t.Run(name, func(t *testing.T) {
			store, err := feature.NewStore(d.Features, d.FeatureDim)
			if err != nil {
				t.Fatal(err)
			}
			if withCache {
				slots := d.NumVertices() / 10
				ranking := cache.DegreeHotness(d.Graph).RankTop(slots)
				table, err := cache.Load(ranking, slots, d.NumVertices(), int64(d.FeatureDim)*4)
				if err != nil {
					t.Fatal(err)
				}
				if err := store.EnableCache(table); err != nil {
					t.Fatal(err)
				}
			}
			model := nn.NewModel(spec.Kind, spec.NumLayers(), d.FeatureDim, spec.HiddenDim, d.NumClasses, 11)
			opt := tensor.NewAdam(0.01, model.Params())
			ex := minibatch.New(alg, d.Graph, store, d.Labels)
			run := func() {
				r.SetState(start) // the same sample every run, so buffers stop growing
				ex.Sample(d.TrainSet[:16], r)
				if err := ex.Compact(); err != nil {
					t.Fatal(err)
				}
				ex.Gather()
				if _, err := ex.LossAndGrad(model); err != nil {
					t.Fatal(err)
				}
				averageGrads(opt.Params(), 1)
				opt.Step()
			}
			for i := 0; i < 3; i++ {
				run()
			}
			if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
				t.Errorf("steady-state minibatch allocates %v/op", allocs)
			}
		})
	}
}
