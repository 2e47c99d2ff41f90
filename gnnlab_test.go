package gnnlab

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// The public-API tests exercise the facade exactly as a downstream user
// would: datasets, simulation, cache-policy analysis, real training, graph
// I/O, and the experiment runner.

const testScale = 16

// paData generates PA once for every test that reads it.
var paData = sync.OnceValues(func() (*Dataset, error) { return LoadDatasetScaled(DatasetPA, testScale) })

func loadPA(t *testing.T) *Dataset {
	t.Helper()
	d, err := paData()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func scaled(cfg SystemConfig) SystemConfig {
	cfg.GPUMemory = DefaultGPUMemory / testScale
	cfg.MemScale = testScale
	cfg.Epochs = 2
	return cfg
}

func TestDatasetNames(t *testing.T) {
	names := DatasetNames()
	if len(names) != 4 || names[0] != DatasetPR || names[3] != DatasetUK {
		t.Errorf("DatasetNames = %v", names)
	}
}

func TestSimulateAllSystems(t *testing.T) {
	d := loadPA(t)
	w := NewWorkload(ModelGCN)
	w.BatchSize /= testScale
	var gnnlab, dgl float64
	for _, cfg := range []SystemConfig{NewGNNLab(w, 8), NewTSOTA(w, 8), NewDGL(w, 8), NewPyG(w, 8), NewAGL(w, 8)} {
		rep, err := Simulate(d, scaled(cfg))
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if rep.OOM {
			t.Fatalf("%s OOM: %s", cfg.Name, rep.OOMReason)
		}
		switch rep.System {
		case "GNNLab":
			gnnlab = rep.EpochTime
		case "DGL":
			dgl = rep.EpochTime
		}
	}
	if gnnlab >= dgl {
		t.Errorf("GNNLab %.3fs not faster than DGL %.3fs on PA", gnnlab, dgl)
	}
}

func TestEvaluateCachePolicyOrdering(t *testing.T) {
	d := loadPA(t)
	alg := NewKHopSampler([]int{15, 10, 5})
	results := map[CachePolicy]CacheEvaluation{}
	for _, p := range []CachePolicy{PolicyRandom, PolicyDegree, PolicyPreSC, PolicyOptimal} {
		ev, err := EvaluateCachePolicy(d, alg, p, 0.10, 8, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		results[p] = ev
	}
	if !(results[PolicyPreSC].HitRate > results[PolicyDegree].HitRate) {
		t.Errorf("PreSC %v not above Degree %v on the citation graph",
			results[PolicyPreSC].HitRate, results[PolicyDegree].HitRate)
	}
	if results[PolicyOptimal].HitRate < results[PolicyPreSC].HitRate {
		t.Error("optimal below PreSC")
	}
	if results[PolicyRandom].TransferredBytes <= results[PolicyOptimal].TransferredBytes {
		t.Error("random policy transfers no more than optimal")
	}
}

// EvaluateCachePolicy rejects out-of-domain arguments, and custom
// samplers that break the sample invariants, with an error instead of a
// zero result or a panic.
func TestEvaluateCachePolicyRejectsHostileInput(t *testing.T) {
	d := loadPA(t)
	alg := NewKHopSampler([]int{5, 3})
	localPastInput := corruptSampler{func(s *Sample, _ GraphView) *Sample {
		s.AdjNbr[0] = int32(len(s.Input))
		return s
	}}
	cases := []struct {
		name      string
		alg       SamplingAlgorithm
		policy    CachePolicy
		ratio     float64
		batchSize int
		epochs    int
		want      string // in the error, when set
	}{
		{"unknown policy", alg, CachePolicy(9), 0.10, 8, 1, ""},
		{"zero epochs", alg, PolicyPreSC, 0.10, 8, 0, ""},
		{"zero batch size", alg, PolicyDegree, 0.10, 0, 1, ""},
		{"negative ratio", alg, PolicyPreSC, -1, 8, 1, ""},
		{"ratio above one", alg, PolicyDegree, 1.5, 8, 1, ""},
		{"nil sampler", nil, PolicyRandom, 0.10, 8, 1, ""},
		{"local past input presc", localPastInput, PolicyPreSC, 0.10, 8, 1, "outside the"},
		{"local past input degree", localPastInput, PolicyDegree, 0.10, 8, 1, "outside the"},
		{"global past graph", corruptSampler{func(s *Sample, g GraphView) *Sample {
			s.Input[len(s.Input)-1] = int32(g.NumVertices())
			return s
		}}, PolicyRandom, 0.10, 8, 1, "not a vertex"},
		{"duplicate input", corruptSampler{func(s *Sample, _ GraphView) *Sample {
			s.Input[len(s.Input)-1] = s.Input[0]
			return s
		}}, PolicyOptimal, 0.10, 8, 1, "duplicate"},
		{"nil sample", corruptSampler{func(*Sample, GraphView) *Sample { return nil }}, PolicyDegree, 0.10, 8, 1, "nil sample"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ev, err := EvaluateCachePolicy(d, tc.alg, tc.policy, tc.ratio, tc.batchSize, tc.epochs, 7)
			if err == nil {
				t.Fatalf("got %+v, want an error", ev)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the broken invariant (%q)", err, tc.want)
			}
		})
	}
}

// corruptSampler is a custom sampler that edits each sample of a built-in
// 2-hop sampler with corrupt. It keeps no state, so every measurement
// worker shares it, and several check samples at once.
type corruptSampler struct {
	corrupt func(s *Sample, g GraphView) *Sample
}

func (c corruptSampler) Name() string             { return "corrupt" }
func (c corruptSampler) NumHops() int             { return 2 }
func (c corruptSampler) Clone() SamplingAlgorithm { return c }
func (c corruptSampler) Sample(g GraphView, seeds []int32, r *Rand) *Sample {
	return c.corrupt(NewKHopSampler([]int{5, 5}).Sample(g, seeds, r), g)
}

// passThrough is a custom sampler that returns a built-in sampler's
// samples unchanged and hands each worker its own instance.
type passThrough struct{ inner SamplingAlgorithm }

func (p passThrough) Name() string { return "pass-through" }
func (p passThrough) NumHops() int { return p.inner.NumHops() }
func (p passThrough) Sample(g GraphView, seeds []int32, r *Rand) *Sample {
	return p.inner.Sample(g, seeds, r)
}
func (p passThrough) Clone() SamplingAlgorithm { return passThrough{NewKHopSampler([]int{5, 3})} }

// A custom sampler's valid samples pass the checks unchanged: it scores
// exactly what the built-in sampler it forwards to scores.
func TestCheckedCustomSamplerMatchesBuiltin(t *testing.T) {
	d := loadPA(t)
	for _, p := range []CachePolicy{PolicyDegree, PolicyPreSC, PolicyOptimal} {
		want, err := EvaluateCachePolicy(d, NewKHopSampler([]int{5, 3}), p, 0.10, 8, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvaluateCachePolicy(d, passThrough{NewKHopSampler([]int{5, 3})}, p, 0.10, 8, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%v: custom pass-through %+v, built-in %+v", p, got, want)
		}
	}
}

func TestCustomSamplersThroughFacade(t *testing.T) {
	d := loadPA(t)
	for _, alg := range []SamplingAlgorithm{
		NewKHopSampler([]int{5, 3}),
		NewWeightedKHopSampler([]int{5, 3}),
		NewRandomWalkSampler(2, 4, 3, 5),
	} {
		ev, err := EvaluateCachePolicy(d, alg, PolicyPreSC, 0.10, 8, 1, 7)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if ev.HitRate <= 0 {
			t.Errorf("%s: zero hit rate", alg.Name())
		}
	}
}

func TestTrainFacade(t *testing.T) {
	d, err := LoadDatasetScaled(DatasetConv, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(d, TrainOptions{
		Model:          ModelGraphSAGE,
		NumSamplers:    2,
		TargetAccuracy: 0.8,
		MaxEpochs:      20,
		EvalSize:       200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("training did not converge: final accuracy %.3f", res.FinalAccuracy)
	}
}

// TestMalformedFaultPlansRejected: both entry points that take a fault
// plan reject a malformed one with an error instead of running it.
func TestMalformedFaultPlansRejected(t *testing.T) {
	simData, err := LoadDatasetScaled(DatasetPR, testScale)
	if err != nil {
		t.Fatal(err)
	}
	trainData, err := LoadDatasetScaled(DatasetConv, testScale)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(ModelGCN)
	w.BatchSize /= testScale
	for _, tc := range []struct {
		name  string
		event FaultEvent
	}{
		{"unknown kind", FaultEvent{Kind: FaultKind(42)}},
		{"negative trainer", FaultEvent{Kind: FaultTrainerCrash, Trainer: -1, At: 0.5}},
		{"NaN time", FaultEvent{Kind: FaultTrainerCrash, At: math.NaN()}},
		{"negative epoch", FaultEvent{Kind: FaultTrainerCrash, Epoch: -1, At: 0.5}},
		{"negative slowdown factor", FaultEvent{Kind: FaultSlowdown, At: 0.1, End: 0.2, Factor: -1}},
		{"NaN slowdown factor", FaultEvent{Kind: FaultSlowdown, At: 0.1, End: 0.2, Factor: math.NaN()}},
		{"zero PCIe factor", FaultEvent{Kind: FaultPCIeDegrade, At: 0.1, End: 0.2, Factor: 0}},
		{"stall ends before it starts", FaultEvent{Kind: FaultQueueStall, At: 0.2, End: 0.1}},
	} {
		plan := &FaultPlan{Events: []FaultEvent{tc.event}}
		cfg := scaled(NewGNNLab(w, 4))
		cfg.Faults = plan
		if rep, err := Simulate(simData, cfg); err == nil {
			t.Errorf("%s: Simulate accepted the plan (epoch time %v)", tc.name, rep.EpochTime)
		}
		if _, err := Train(trainData, TrainOptions{Model: ModelGCN, MaxEpochs: 1, EvalSize: 50, Faults: plan}); err == nil {
			t.Errorf("%s: Train accepted the plan", tc.name)
		}
	}
}

func TestPreprocessFacade(t *testing.T) {
	d := loadPA(t)
	w := NewWorkload(ModelGCN)
	w.BatchSize /= testScale
	p, err := Preprocess(d, scaled(NewGNNLab(w, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if p.DiskToDRAM <= 0 || p.PreSample <= 0 {
		t.Errorf("preprocess %+v", p)
	}
}

func TestGraphIOFacade(t *testing.T) {
	b := NewGraphBuilder(3, false)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 0)
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != 2 {
		t.Errorf("round trip lost edges: %d", got.NumEdges())
	}
}

func TestRunExperimentFacade(t *testing.T) {
	tbl, err := RunExperiment("table3", ExperimentOptions{Scale: testScale, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.Render(), "PA") {
		t.Error("table3 render missing datasets")
	}
	if _, err := RunExperiment("bogus", ExperimentOptions{}); err == nil {
		t.Error("unknown experiment accepted")
	} else if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error %q lacks id", err)
	}
	if len(ExperimentIDs()) < 20 {
		t.Errorf("only %d experiments registered", len(ExperimentIDs()))
	}
}

func TestGenerateDatasetFacade(t *testing.T) {
	d, err := GenerateDataset(DatasetConfig{
		Name: "custom", Kind: 1, // KindSocial
		NumVertices: 1000, NumEdges: 10000,
		FeatureDim: 32, TrainFraction: 0.1,
		Weighted: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumVertices() != 1000 {
		t.Errorf("custom dataset has %d vertices", d.NumVertices())
	}
}

// A scale below 1 or an unknown preset is an error, not the full-scale
// graph or a panic further on.
func TestLoadDatasetScaledRejectsBadInput(t *testing.T) {
	for _, c := range []struct {
		name   string
		factor int
	}{
		{DatasetPR, 0},
		{DatasetPR, -1},
		{"nope", 8},
	} {
		if _, err := LoadDatasetScaled(c.name, c.factor); err == nil {
			t.Errorf("LoadDatasetScaled(%q, %d) returned no error", c.name, c.factor)
		}
	}
}

func TestDatasetIOFacade(t *testing.T) {
	d, err := LoadDatasetScaled(DatasetConv, 16)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(&buf, "restored")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != d.NumVertices() || len(got.TrainSet) != len(d.TrainSet) {
		t.Error("dataset round trip changed shape")
	}
	// A restored labelled dataset must be trainable.
	res, err := Train(got, TrainOptions{Model: ModelGraphSAGE, TargetAccuracy: 0.5, MaxEpochs: 8, EvalSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy <= 0 {
		t.Error("restored dataset untrainable")
	}
}
