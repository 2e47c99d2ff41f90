package nn

import (
	"testing"

	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/tensor"
	"gnnlab/internal/workload"
)

// modelPair builds two identically-initialized models of kind.
func modelPair(kind workload.ModelKind, layers, dim, hidden, classes int) (*Model, *Model) {
	a := NewModel(kind, layers, dim, hidden, classes, 77)
	b := NewModel(kind, layers, dim, hidden, classes, 77)
	return a, b
}

// TestNewCompactIntoMatchesNewCompact checks that a reused Compact is
// field-for-field identical to a fresh one across samples of different
// shapes, including shrinking ones.
func TestNewCompactIntoMatchesNewCompact(t *testing.T) {
	g := testGraph(21, 200, 6)
	seedSets := [][]int32{{1, 2, 3, 4, 5, 6}, {7}, {9, 11, 13}, {1, 2, 3, 4, 5, 6, 8, 10}}
	var reused Compact
	for _, seeds := range seedSets {
		s := sampleFor(t, g, seeds, []int{4, 3})
		fresh, err := newCompact(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := NewCompactInto(&reused, s); err != nil {
			t.Fatal(err)
		}
		if reused.NumVertices != fresh.NumVertices || reused.NumSeeds != fresh.NumSeeds ||
			reused.NumLevels != fresh.NumLevels {
			t.Fatalf("seeds %v: header differs: %+v vs fresh", seeds, reused)
		}
		for i, n := range fresh.Needed {
			if reused.Needed[i] != n {
				t.Fatalf("seeds %v: Needed[%d] = %d, want %d", seeds, i, reused.Needed[i], n)
			}
		}
		for i, v := range fresh.AdjStart {
			if reused.AdjStart[i] != v {
				t.Fatalf("seeds %v: AdjStart[%d] = %d, want %d", seeds, i, reused.AdjStart[i], v)
			}
		}
		for i, v := range fresh.AdjNbr {
			if reused.AdjNbr[i] != v {
				t.Fatalf("seeds %v: AdjNbr[%d] = %d, want %d", seeds, i, reused.AdjNbr[i], v)
			}
		}
	}
}

func TestNewCompactIntoRejectsBadSample(t *testing.T) {
	var c Compact
	bad := []*sampling.Sample{
		{Seeds: []int32{1}, Input: []int32{2}},          // input[0] != seed
		{Seeds: []int32{1, 2}, Input: []int32{1}},       // fewer inputs than seeds
		{Seeds: []int32{1, 2}, Input: []int32{1, 2, 2}}, // duplicate global
		{Seeds: []int32{1}, Input: []int32{1, 5}, Layers: []sampling.Layer{{Src: []int32{1}, Dst: []int32{9}, NumVertices: 2}}}, // dst out of range
	}
	for i, s := range bad {
		if err := NewCompactInto(&c, s); err == nil {
			t.Errorf("case %d: NewCompactInto accepted inconsistent sample", i)
		}
	}
}

func TestSeedLabelsIntoReusesBuffer(t *testing.T) {
	s := &sampling.Sample{Seeds: []int32{3, 1}, Input: []int32{3, 1}}
	labels := []int32{10, 11, 12, 13}
	buf := make([]int32, 0, 8)
	got := SeedLabelsInto(buf, s, labels)
	if got[0] != 13 || got[1] != 11 {
		t.Fatalf("SeedLabelsInto = %v", got)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("SeedLabelsInto reallocated despite sufficient capacity")
	}
}

// TestModelWorkspaceMatchesFresh trains two identically-seeded models —
// one through LossAndGrad (fresh allocations), one through LossAndGradWS
// (pooled workspace) — over a stream of varying batches with optimizer
// steps in between, and requires bit-identical losses, correct-counts
// and parameter values throughout. This is the layer-level contract the
// train package's TestTrainPooledMatchesFresh builds on.
func TestModelWorkspaceMatchesFresh(t *testing.T) {
	g := testGraph(31, 150, 5)
	kinds := []struct {
		kind   workload.ModelKind
		layers int
	}{
		{workload.GCN, 2},
		{workload.GraphSAGE, 2},
		{workload.PinSAGE, 3},
		{workload.GAT, 2},
	}
	seedSets := [][]int32{{1, 2, 3, 4}, {5, 6}, {7, 8, 9, 10, 11}, {1, 3, 5}}
	for _, k := range kinds {
		const dim, hidden, classes = 6, 8, 3
		fresh, pooled := modelPair(k.kind, k.layers, dim, hidden, classes)
		optF := tensor.NewAdam(0.01, fresh.Params())
		optP := tensor.NewAdam(0.01, pooled.Params())
		ws := NewWorkspace()
		var cmp Compact
		for round, seeds := range seedSets {
			s := sampleFor(t, g, seeds, fanoutsFor(k.layers))
			cf, err := newCompact(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := NewCompactInto(&cmp, s); err != nil {
				t.Fatal(err)
			}
			feats := tensor.New(cf.NumVertices, dim)
			r := rng.New(uint64(round) + 5)
			for i := range feats.Data {
				feats.Data[i] = float32(r.NormFloat64())
			}
			labels := make([]int32, len(seeds))
			for i := range labels {
				labels[i] = int32(i % classes)
			}
			lf, cfr, err := fresh.LossAndGradWS(NewWorkspace(), cf, feats, labels)
			if err != nil {
				t.Fatal(err)
			}
			lp, cpr, err := pooled.LossAndGradWS(ws, &cmp, feats, labels)
			if err != nil {
				t.Fatal(err)
			}
			if lf != lp || cfr != cpr {
				t.Fatalf("%v round %d: fresh (%v, %d) != pooled (%v, %d)",
					k.kind, round, lf, cfr, lp, cpr)
			}
			optF.Step()
			optP.Step()
			for pi, p := range fresh.Params() {
				q := pooled.Params()[pi]
				for i := range p.Value.Data {
					if p.Value.Data[i] != q.Value.Data[i] {
						t.Fatalf("%v round %d: param %d diverges at %d: %v vs %v",
							k.kind, round, pi, i, p.Value.Data[i], q.Value.Data[i])
					}
				}
			}
			// Predictions agree too (exercises PredictWS).
			pf, err := fresh.PredictWS(NewWorkspace(), cf, feats, labels)
			if err != nil {
				t.Fatal(err)
			}
			pp, err := pooled.PredictWS(ws, &cmp, feats, labels)
			if err != nil {
				t.Fatal(err)
			}
			if pf != pp {
				t.Fatalf("%v round %d: Predict %d != PredictWS %d", k.kind, round, pf, pp)
			}
		}
	}
}

// TestLossAndGradSteadyStateZeroAllocs pins the full compact+forward+
// backward pass at zero heap allocations once the workspace is warm, for
// every model kind (GAT included — its variable-length attention rows
// come from the workspace's float slots).
func TestLossAndGradSteadyStateZeroAllocs(t *testing.T) {
	g := testGraph(41, 120, 5)
	kinds := []struct {
		kind   workload.ModelKind
		layers int
	}{
		{workload.GCN, 2},
		{workload.GraphSAGE, 2},
		{workload.PinSAGE, 3},
		{workload.GAT, 2},
	}
	for _, k := range kinds {
		const dim, hidden, classes = 6, 8, 3
		model := NewModel(k.kind, k.layers, dim, hidden, classes, 13)
		s := sampleFor(t, g, []int32{1, 2, 3, 4}, fanoutsFor(k.layers))
		ws := NewWorkspace()
		var cmp Compact
		if err := NewCompactInto(&cmp, s); err != nil {
			t.Fatal(err)
		}
		feats := tensor.New(cmp.NumVertices, dim)
		labels := []int32{0, 1, 2, 0}
		run := func() {
			if err := NewCompactInto(&cmp, s); err != nil {
				t.Fatal(err)
			}
			if _, _, err := model.LossAndGradWS(ws, &cmp, feats, labels); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ { // warm the workspace
			run()
		}
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%v: steady-state LossAndGradWS allocates %v/op", k.kind, allocs)
		}
	}
}
