package train

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"gnnlab/internal/cache"
	"gnnlab/internal/gen"
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

// TestTrainConverges checks that real GraphSAGE training on the community
// dataset reaches a nontrivial accuracy target — the substance behind the
// convergence experiment (§7.7).
func TestTrainConverges(t *testing.T) {
	d := convDataset(t)
	res, err := Train(d, Options{
		Model:          workload.GraphSAGE,
		TargetAccuracy: 0.85,
		MaxEpochs:      30,
		EvalSize:       400,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := res.History[len(res.History)-1]
	t.Logf("converged=%v epochs=%d updates=%d finalAcc=%.3f loss=%.3f",
		res.Converged, len(res.History), last.Updates, res.FinalAccuracy, last.Loss)
	if !res.Converged {
		t.Fatalf("did not reach 0.85 accuracy in 30 epochs (final %.3f)", res.FinalAccuracy)
	}
}

// TestTrainMoreTrainersFewerUpdates verifies the Fig 16(b) accounting: the
// same number of mini-batches with a wider data-parallel group yields
// fewer gradient updates per epoch.
func TestTrainMoreTrainersFewerUpdates(t *testing.T) {
	d := convDataset(t)
	run := func(trainers int) *Result {
		res, err := Train(d, Options{
			Model:          workload.GraphSAGE,
			NumTrainers:    trainers,
			TargetAccuracy: 1.01, // unreachable: measure full epochs
			MaxEpochs:      2,
			EvalSize:       200,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	four := run(4)
	u1 := one.History[0].Updates
	u4 := four.History[0].Updates
	t.Logf("updates per epoch: 1 trainer %d, 4 trainers %d", u1, u4)
	if u4*2 >= u1 {
		t.Errorf("4 trainers should give ~4x fewer updates per epoch: got %d vs %d", u4, u1)
	}
}

// TestTrainRejectsUnusableCachePolicy checks that a live run refuses the
// Optimal oracle and unknown policies, naming the policy, rather than
// training with some other cache.
func TestTrainRejectsUnusableCachePolicy(t *testing.T) {
	d := convDataset(t)
	for _, p := range []cache.PolicyKind{cache.PolicyOptimal, cache.PolicyKind(9)} {
		_, err := Train(d, Options{
			Model:       workload.GCN,
			CacheRatio:  0.1,
			CachePolicy: p,
			MaxEpochs:   1,
			EvalSize:    100,
		})
		if err == nil || !strings.Contains(err.Error(), p.String()) {
			t.Errorf("policy %v: err = %v, want an error naming the policy", p, err)
		}
	}
}

// TestTrainRejectsNegativeOptions checks that each count or size below
// zero is an error naming the field, not a panic, and that zero keeps
// its default.
func TestTrainRejectsNegativeOptions(t *testing.T) {
	d := convDataset(t)
	base := Options{Model: workload.GCN, MaxEpochs: 1, EvalSize: 100}
	cases := []struct {
		field string
		set   func(*Options)
	}{
		{"NumTrainers", func(o *Options) { o.NumTrainers = -2 }},
		{"NumSamplers", func(o *Options) { o.NumSamplers = -1 }},
		{"BatchSize", func(o *Options) { o.BatchSize = -3 }},
		{"HiddenDim", func(o *Options) { o.HiddenDim = -3 }},
		{"EvalSize", func(o *Options) { o.EvalSize = -1 }},
		{"MaxEpochs", func(o *Options) { o.MaxEpochs = -3 }},
	}
	for _, c := range cases {
		t.Run(c.field, func(t *testing.T) {
			opts := base
			c.set(&opts)
			var res *Result
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("Train panicked: %v", p)
					}
				}()
				res, err = Train(d, opts)
			}()
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Fatalf("err = %v (result %v), want an error naming %s", err, res, c.field)
			}
		})
	}
	if _, err := Train(d, base); err != nil {
		t.Errorf("zero counts: %v, want the defaults", err)
	}
}

// TestTrainReleasesDataset checks that Train keeps nothing that reaches
// the dataset once it returns: an experiment sweep trains on dataset
// after dataset, and each must be collectable when the caller drops it.
func TestTrainReleasesDataset(t *testing.T) {
	cfg, err := gen.PresetConfig(gen.PresetConv)
	if err != nil {
		t.Fatal(err)
	}
	cfg = gen.ScaleDown(cfg, 4)
	cfg.MaterializeFeatures = true
	collected := make(chan struct{})
	func() {
		d, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(d, func(*gen.Dataset) { close(collected) })
		if _, err := Train(d, Options{Model: workload.GCN, MaxEpochs: 1, EvalSize: 100}); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 5; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("the dataset was not collected after Train returned and the caller dropped it")
}
