package measure

import (
	"bytes"
	"sort"
	"testing"

	"gnnlab/internal/gen"
	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/workload"
)

// deltaDatasets builds one logical dataset twice: once over a
// graph.Delta snapshot (base CSR + overlay edges + late-born vertices) and
// once over a from-scratch CSR rebuild of the same edge set. Everything
// but the Graph view is shared.
func deltaDatasets(t *testing.T) (snapD, fullD *gen.Dataset) {
	t.Helper()
	const nBase, nNew, edges = 400, 40, 6000
	n := nBase + nNew
	r := rng.New(17)
	type e struct {
		src, dst int32
		w        float32
	}
	var baseEdges, deltaEdges []e
	for i := 0; i < edges; i++ {
		src, dst := int32(r.Intn(n)), int32(r.Intn(n))
		if src == dst {
			continue
		}
		ed := e{src, dst, float32(r.Float64()) + 0.01}
		if int(src) >= nBase || int(dst) >= nBase || r.Intn(3) == 0 {
			deltaEdges = append(deltaEdges, ed)
		} else {
			baseEdges = append(baseEdges, ed)
		}
	}
	b := graph.NewBuilder(nBase, true)
	for _, ed := range baseEdges {
		b.AddEdge(ed.src, ed.dst, ed.w)
	}
	base, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.NewDelta(base, false)
	d.AddVertices(nNew)
	for _, ed := range deltaEdges {
		d.AddEdge(ed.src, ed.dst, ed.w)
	}
	full := graph.NewBuilder(n, true)
	for _, ed := range baseEdges {
		full.AddEdge(ed.src, ed.dst, ed.w)
	}
	for _, ed := range deltaEdges {
		full.AddEdge(ed.src, ed.dst, ed.w)
	}
	rebuilt, err := full.Build(false)
	if err != nil {
		t.Fatal(err)
	}

	ts := append([]int32(nil), r.Perm(n)[:48]...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	mk := func(g graph.View) *gen.Dataset {
		return &gen.Dataset{Name: "delta-test", Graph: g, FeatureDim: 16, TrainSet: ts}
	}
	return mk(d.Snapshot()), mk(rebuilt)
}

// TestCollectSnapshotMatchesRebuild closes the differential suite at the
// measurement layer: a full Collect run (the input to every replayed
// experiment) is bit-identical between a delta snapshot and a from-scratch
// rebuild, at several GOMAXPROCS settings.
func TestCollectSnapshotMatchesRebuild(t *testing.T) {
	snapD, fullD := deltaDatasets(t)
	w := workload.NewSpec(workload.GraphSAGE)
	w.BatchSize = 16
	spec := SpecFor(fullD, w.NewSampler(), w.BatchSize, 2, 123)
	setProcs(t, 1)
	ref := Collect(fullD, spec, w.NewSampler(), nil)
	if ref.NumBatches() == 0 {
		t.Fatal("reference measurement is empty")
	}
	refBytes := gobEpochs(t, ref.Epochs)
	for _, procs := range []int{1, 2, 4} {
		setProcs(t, procs)
		got := Collect(snapD, spec, w.NewSampler(), nil)
		if got.Spec != spec {
			t.Fatalf("GOMAXPROCS %d: spec drifted: %+v", procs, got.Spec)
		}
		if !bytes.Equal(gobEpochs(t, got.Epochs), refBytes) {
			t.Errorf("GOMAXPROCS %d: measurement over snapshot differs from rebuild", procs)
		}
	}
	// The content key must agree too: Spec is derived only from View-level
	// quantities, so both datasets produce the same key.
	if snapSpec := SpecFor(snapD, sampling.ForGraphSAGE(), w.BatchSize, 2, 123); snapSpec != spec {
		t.Errorf("SpecFor(snapshot) = %+v, want %+v", snapSpec, spec)
	}
}
