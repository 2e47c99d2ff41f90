package workload

import (
	"testing"

	"gnnlab/internal/sampling"
)

func TestSpecLayersAndSamplers(t *testing.T) {
	cases := []struct {
		kind     ModelKind
		weighted bool
		layers   int
		name     string
	}{
		{GCN, false, 3, "GCN"},
		{GCN, true, 3, "GCN(W)"},
		{GraphSAGE, false, 2, "GSG"},
		{PinSAGE, false, 3, "PSG"},
	}
	for _, c := range cases {
		s := NewSpec(c.kind)
		s.Weighted = c.weighted
		if got := s.NumLayers(); got != c.layers {
			t.Errorf("%s: NumLayers = %d, want %d", c.name, got, c.layers)
		}
		if got := s.Name(); got != c.name {
			t.Errorf("Name = %q, want %q", got, c.name)
		}
		alg := s.NewSampler()
		if alg.NumHops() != c.layers {
			t.Errorf("%s: sampler hops %d != layers %d", c.name, alg.NumHops(), c.layers)
		}
	}
	if _, ok := NewSpec(GCN).NewSampler().(*sampling.KHop); !ok {
		t.Error("GCN sampler is not k-hop")
	}
	w := NewSpec(GCN)
	w.Weighted = true
	if _, ok := w.NewSampler().(*sampling.WeightedKHop); !ok {
		t.Error("weighted GCN sampler is not weighted k-hop")
	}
	if _, ok := NewSpec(PinSAGE).NewSampler().(*sampling.RandomWalk); !ok {
		t.Error("PinSAGE sampler is not random walk")
	}
}

func TestTrainFLOPsMonotone(t *testing.T) {
	spec := NewSpec(GCN)
	small := []LayerDims{{Edges: 10, Targets: 2}, {Edges: 30, Targets: 10}, {Edges: 90, Targets: 30}}
	big := []LayerDims{{Edges: 20, Targets: 4}, {Edges: 60, Targets: 20}, {Edges: 180, Targets: 60}}
	fs, fb := spec.FLOPsFor(small, 64), spec.FLOPsFor(big, 64)
	if fs <= 0 || fb <= fs {
		t.Errorf("FLOPs not monotone: %v vs %v", fs, fb)
	}
	// Wider features cost more.
	if spec.FLOPsFor(small, 128) <= fs {
		t.Error("FLOPs not monotone in feature dim")
	}
	// PinSAGE pays the importance-pooling premium.
	psg := NewSpec(PinSAGE)
	if psg.FLOPsFor(small, 64) <= fs {
		t.Error("PinSAGE FLOPs not above GCN")
	}
}

func TestWorkspaceShapes(t *testing.T) {
	gcn, gsg, psg := NewSpec(GCN), NewSpec(GraphSAGE), NewSpec(PinSAGE)
	// GraphSAGE (2 layers) is the lightest; these orderings are what
	// produce the paper's OOM pattern on UK.
	if !(gsg.TrainWorkspaceBytes() < psg.TrainWorkspaceBytes()) {
		t.Error("GraphSAGE train workspace should be smallest")
	}
	if !(gsg.TrainWorkspaceBytes() < gcn.TrainWorkspaceBytes()) {
		t.Error("GraphSAGE train workspace should undercut GCN")
	}
	for _, s := range []Spec{gcn, gsg, psg} {
		if s.SampleWorkspaceBytes() <= 0 || s.TrainWorkspaceBytes() <= 0 {
			t.Errorf("%s: non-positive workspace", s.Name())
		}
	}
}

func TestKindsAndDefaults(t *testing.T) {
	if got := Kinds(); len(got) != 3 || got[0] != GCN || got[2] != PinSAGE {
		t.Errorf("Kinds = %v", got)
	}
	s := NewSpec(GraphSAGE)
	if s.BatchSize != DefaultBatchSize || s.HiddenDim != DefaultHiddenDim {
		t.Errorf("defaults not applied: %+v", s)
	}
}
