package gnnlab

import (
	"bytes"
	"strings"
	"testing"
)

// The public-API tests exercise the facade exactly as a downstream user
// would: datasets, simulation, cache-policy analysis, real training, graph
// I/O, and the experiment runner.

const testScale = 16

func loadPA(t *testing.T) *Dataset {
	t.Helper()
	d, err := LoadDatasetScaled(DatasetPA, testScale)
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

// EvaluateCachePolicy rejects out-of-domain arguments with an error
// instead of a zero result or a panic.
func TestEvaluateCachePolicyRejectsHostileInput(t *testing.T) {
	d := loadPA(t)
	alg := NewKHopSampler([]int{5, 3})
	cases := []struct {
		name      string
		alg       SamplingAlgorithm
		policy    CachePolicy
		ratio     float64
		batchSize int
		epochs    int
	}{
		{"unknown policy", alg, CachePolicy(9), 0.10, 8, 1},
		{"zero epochs", alg, PolicyPreSC, 0.10, 8, 0},
		{"zero batch size", alg, PolicyDegree, 0.10, 0, 1},
		{"negative ratio", alg, PolicyPreSC, -1, 8, 1},
		{"ratio above one", alg, PolicyDegree, 1.5, 8, 1},
		{"nil sampler", nil, PolicyRandom, 0.10, 8, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ev, err := EvaluateCachePolicy(d, tc.alg, tc.policy, tc.ratio, tc.batchSize, tc.epochs, 7)
			if err == nil {
				t.Errorf("got %+v, want an error", ev)
			}
		})
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
