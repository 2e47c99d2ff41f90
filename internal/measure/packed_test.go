package measure

import (
	"bytes"
	"sort"
	"testing"

	"gnnlab/internal/gen"
	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
	"gnnlab/internal/workload"
)

// packedDatasets builds one logical dataset twice: over the base CSR and
// over its Pack'd compressed encoding. Everything but the Graph view is
// shared.
func packedDatasets(t *testing.T) (csrD, packedD *gen.Dataset) {
	t.Helper()
	const n, edges = 440, 6000
	r := rng.New(29)
	b := graph.NewBuilder(n, true)
	for i := 0; i < edges; i++ {
		src, dst := int32(r.Intn(n)), int32(r.Intn(n))
		if src == dst {
			continue
		}
		b.AddEdge(src, dst, float32(r.Float64())+0.01)
	}
	csr, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	ts := append([]int32(nil), r.Perm(n)[:48]...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	mk := func(g graph.View) *gen.Dataset {
		return &gen.Dataset{Name: "packed-test", Graph: g, FeatureDim: 16, TrainSet: ts}
	}
	return mk(csr), mk(graph.Pack(csr, 0))
}

// TestCollectPackedMatchesCSR closes the compressed-topology differential
// at the measurement layer: a full Collect run is bit-identical between a
// CSR and its packed encoding, at several GOMAXPROCS settings — so every
// replayed experiment sees the same measurements regardless of which
// topology representation was loaded.
func TestCollectPackedMatchesCSR(t *testing.T) {
	csrD, packedD := packedDatasets(t)
	w := workload.NewSpec(workload.GraphSAGE)
	w.BatchSize = 16
	spec := SpecFor(csrD, w.NewSampler(), w.BatchSize, 2, 123)
	setProcs(t, 1)
	ref := Collect(csrD, spec, w.NewSampler(), nil)
	if ref.NumBatches() == 0 {
		t.Fatal("reference measurement is empty")
	}
	refBytes := gobEpochs(t, ref.Epochs)
	for _, procs := range []int{1, 2, 4} {
		setProcs(t, procs)
		got := Collect(packedD, spec, w.NewSampler(), nil)
		if got.Spec != spec {
			t.Fatalf("GOMAXPROCS %d: spec drifted: %+v", procs, got.Spec)
		}
		if !bytes.Equal(gobEpochs(t, got.Epochs), refBytes) {
			t.Errorf("GOMAXPROCS %d: measurement over packed differs from CSR", procs)
		}
	}
	// The content key must agree: Spec derives only from View-level
	// quantities that Pack preserves (vertices, edges, degrees).
	if pSpec := SpecFor(packedD, w.NewSampler(), w.BatchSize, 2, 123); pSpec != spec {
		t.Errorf("SpecFor(packed) = %+v, want %+v", pSpec, spec)
	}
}
