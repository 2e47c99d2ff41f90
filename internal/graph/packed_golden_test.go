package graph_test

import (
	"testing"

	"gnnlab/internal/gen"
	"gnnlab/internal/graph"
)

// TestPackedTopologyBytesGolden pins the packed encoder's output size on a
// seeded power-law graph: the PR-shaped co-purchase topology
// BenchmarkPackedDecode compresses, at an eighth of its size so the test
// stays quick under the race detector. Unweighted, so TopologyBytes
// compares pure topology. The generator is seeded and the encoder is
// byte-deterministic, so both sizes are exact on every host; a change
// means the encoding (block width, varint layout, directory) changed.
func TestPackedTopologyBytesGolden(t *testing.T) {
	d, err := gen.Generate(gen.Config{
		Name: "packed-golden", Kind: gen.KindCoPurchase,
		NumVertices: 3_000, NumEdges: 155_000,
		FeatureDim: 1, TrainFraction: 0.01,
		Weighted: false, Seed: 0xA11CE,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := d.CSR()
	p := graph.Pack(g, 0)
	if g.NumEdges() != 155_000 || p.NumEdges() != 155_000 {
		t.Fatalf("edges: csr %d, packed %d, want 155000", g.NumEdges(), p.NumEdges())
	}
	if got := g.TopologyBytes(); got != 644_008 {
		t.Errorf("CSR TopologyBytes = %d, want 644008", got)
	}
	if got := p.TopologyBytes(); got != 176_612 {
		t.Errorf("packed TopologyBytes = %d, want 176612", got)
	}
}
