package gen

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"

	"gnnlab/internal/graph"
)

// tiny returns a small config of the given kind for fast tests.
func tiny(kind Kind) Config {
	cfg := Config{
		Name: "tiny", Kind: kind,
		NumVertices: 2000, NumEdges: 30000,
		FeatureDim: 16, TrainFraction: 0.05,
		Weighted: true, Seed: 77,
	}
	if kind == KindCommunity {
		cfg.NumClasses = 4
		cfg.MaterializeFeatures = true
	}
	return cfg
}

func TestGenerateAllKindsValid(t *testing.T) {
	for _, kind := range []Kind{KindCoPurchase, KindSocial, KindCitation, KindWeb, KindCommunity} {
		d, err := Generate(tiny(kind))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := d.CSR().Validate(); err != nil {
			t.Errorf("%v: invalid graph: %v", kind, err)
		}
		if d.NumVertices() != 2000 {
			t.Errorf("%v: %d vertices, want 2000", kind, d.NumVertices())
		}
		// Edge counts land near the target (generators skip self loops
		// and citation draws per-vertex degrees).
		e := d.Graph.NumEdges()
		if e < 30000*8/10 || e > 30000*12/10 {
			t.Errorf("%v: %d edges, want ~30000", kind, e)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(tiny(KindSocial))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(tiny(KindSocial))
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.Graph.NumEdges(), b.Graph.NumEdges())
	}
	for i := range a.CSR().ColIdx {
		if a.CSR().ColIdx[i] != b.CSR().ColIdx[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
	for i := range a.TrainSet {
		if a.TrainSet[i] != b.TrainSet[i] {
			t.Fatalf("train set differs at %d", i)
		}
	}
}

func TestSeedsChangeOutput(t *testing.T) {
	cfg := tiny(KindSocial)
	a, _ := Generate(cfg)
	cfg.Seed = 78
	b, _ := Generate(cfg)
	same := 0
	for i := 0; i < 1000 && i < len(a.CSR().ColIdx) && i < len(b.CSR().ColIdx); i++ {
		if a.CSR().ColIdx[i] == b.CSR().ColIdx[i] {
			same++
		}
	}
	if same > 900 {
		t.Errorf("different seeds produced %d/1000 identical edges", same)
	}
}

func TestTrainSetProperties(t *testing.T) {
	d, err := Generate(tiny(KindCitation))
	if err != nil {
		t.Fatal(err)
	}
	want := int(0.05*2000) + 1 // ceil
	if len(d.TrainSet) != want && len(d.TrainSet) != want-1 {
		t.Errorf("train set size %d, want ~%d", len(d.TrainSet), want)
	}
	if !sort.SliceIsSorted(d.TrainSet, func(i, j int) bool { return d.TrainSet[i] < d.TrainSet[j] }) {
		t.Error("train set not sorted")
	}
	seen := map[int32]bool{}
	for _, v := range d.TrainSet {
		if v < 0 || int(v) >= d.NumVertices() {
			t.Fatalf("train vertex %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate train vertex %d", v)
		}
		seen[v] = true
	}
}

func TestLabelsAndFeatures(t *testing.T) {
	d, err := Generate(tiny(KindCommunity))
	if err != nil {
		t.Fatal(err)
	}
	if d.Labels == nil || d.Features == nil {
		t.Fatal("community dataset missing labels or features")
	}
	for v, l := range d.Labels {
		if l != int32(v%4) {
			t.Fatalf("community label[%d] = %d, want %d", v, l, v%4)
		}
	}
	if got := len(d.Features); got != 2000*16 {
		t.Fatalf("features length %d, want %d", got, 2000*16)
	}
}

func TestCommunityEdgesMostlyIntra(t *testing.T) {
	d, err := Generate(tiny(KindCommunity))
	if err != nil {
		t.Fatal(err)
	}
	intra, total := 0, 0
	g := d.Graph
	for v := 0; v < d.NumVertices(); v++ {
		for _, dst := range g.Adj(int32(v)) {
			total++
			if d.Labels[v] == d.Labels[dst] {
				intra++
			}
		}
	}
	frac := float64(intra) / float64(total)
	if frac < 0.7 {
		t.Errorf("intra-community edge fraction %.2f, want >= 0.7", frac)
	}
}

func TestDegreeShapes(t *testing.T) {
	social, _ := Generate(tiny(KindSocial))
	citation, _ := Generate(tiny(KindCitation))
	web, _ := Generate(tiny(KindWeb))

	// Social: in-degree extremely skewed and correlated with out-degree.
	inMax := maxOf(graph.InDegrees(social.Graph))
	if inMax < 400 {
		t.Errorf("social in-degree max %d, want heavy skew", inMax)
	}
	// Citation: out-degree narrow (lognormal), far below social hub scale.
	outMax := maxOf(graph.OutDegrees(citation.Graph))
	avg := float64(citation.Graph.NumEdges()) / 2000
	if float64(outMax) > 16*avg {
		t.Errorf("citation out-degree max %d too skewed (avg %.1f)", outMax, avg)
	}
	// Web: in- and out-degree rank correlation should be far weaker than
	// social's (decorrelated permutations with partial overlap).
	if corrWeb, corrSoc := degreeRankOverlap(web.Graph), degreeRankOverlap(social.Graph); corrWeb >= corrSoc {
		t.Errorf("web degree overlap %.2f >= social %.2f", corrWeb, corrSoc)
	}
}

// degreeRankOverlap returns the fraction of top-5% in-degree vertices that
// are also top-5% out-degree vertices.
func degreeRankOverlap(g graph.View) float64 {
	n := g.NumVertices()
	k := n / 20
	topIn := topK(graph.InDegrees(g), k)
	topOut := topK(graph.OutDegrees(g), k)
	hits := 0
	for v := range topIn {
		if _, ok := topOut[v]; ok {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

func topK(deg []int64, k int) map[int]struct{} {
	idx := make([]int, len(deg))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return deg[idx[a]] > deg[idx[b]] })
	out := make(map[int]struct{}, k)
	for _, v := range idx[:k] {
		out[v] = struct{}{}
	}
	return out
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestWeightsRecency(t *testing.T) {
	d, err := Generate(tiny(KindSocial))
	if err != nil {
		t.Fatal(err)
	}
	g := d.CSR()
	if !g.Weighted() {
		t.Fatal("weighted config produced unweighted graph")
	}
	for i, w := range g.Weights {
		if w <= 0 {
			t.Fatalf("edge %d weight %v, want > 0", i, w)
		}
	}
}

func TestPresets(t *testing.T) {
	names := PresetNames()
	if len(names) != 4 {
		t.Fatalf("PresetNames = %v", names)
	}
	for name := range presetConfigs() {
		cfg, err := PresetConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := PresetConfig("NOPE"); err == nil {
		t.Error("PresetConfig accepted unknown preset")
	}
}

func TestScaleDown(t *testing.T) {
	cfg, _ := PresetConfig(PresetPA)
	s := ScaleDown(cfg, 100)
	if s.NumVertices != cfg.NumVertices/100 || s.NumEdges != cfg.NumEdges/100 {
		t.Errorf("ScaleDown wrong sizes: %d/%d", s.NumVertices, s.NumEdges)
	}
	if s.FeatureDim != cfg.FeatureDim {
		t.Error("ScaleDown changed feature dim")
	}
	if same := ScaleDown(cfg, 1); same.Name != cfg.Name {
		t.Error("ScaleDown(1) should be identity")
	}
	// Floors apply for absurd factors.
	s = ScaleDown(cfg, 1_000_000)
	if s.NumVertices < 64 || s.NumEdges < 256 {
		t.Errorf("ScaleDown floor violated: %d/%d", s.NumVertices, s.NumEdges)
	}
}

func TestLoadMemoizes(t *testing.T) {
	cfg := tiny(KindWeb)
	a, err := Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Load did not memoize")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Name: "v", NumVertices: 0, NumEdges: 1, FeatureDim: 1, TrainFraction: 0.1},
		{Name: "e", NumVertices: 1, NumEdges: 0, FeatureDim: 1, TrainFraction: 0.1},
		{Name: "d", NumVertices: 1, NumEdges: 1, FeatureDim: 0, TrainFraction: 0.1},
		{Name: "t", NumVertices: 1, NumEdges: 1, FeatureDim: 1, TrainFraction: 0},
		{Name: "t2", NumVertices: 1, NumEdges: 1, FeatureDim: 1, TrainFraction: 1.5},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad config", cfg.Name)
		}
	}
	if _, err := Generate(Config{Name: "c", Kind: KindCommunity, NumVertices: 10, NumEdges: 10, FeatureDim: 1, TrainFraction: 0.5}); err == nil {
		t.Error("community generation without classes should fail")
	}
}

func TestVolumeAccessors(t *testing.T) {
	d, err := Generate(tiny(KindCitation))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.FeatureBytes(), int64(2000*16*4); got != want {
		t.Errorf("FeatureBytes = %d, want %d", got, want)
	}
	if got := d.VertexFeatureBytes(); got != 64 {
		t.Errorf("VertexFeatureBytes = %d, want 64", got)
	}
	if d.TopologyBytes() != d.Graph.TopologyBytes() {
		t.Error("TopologyBytes mismatch")
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	d, err := Generate(tiny(KindCommunity))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(&buf, d.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != d.NumVertices() || got.Graph.NumEdges() != d.Graph.NumEdges() {
		t.Fatalf("graph shape changed: %d/%d vs %d/%d",
			got.NumVertices(), got.Graph.NumEdges(), d.NumVertices(), d.Graph.NumEdges())
	}
	if got.FeatureDim != d.FeatureDim || got.NumClasses != d.NumClasses {
		t.Errorf("metadata changed: dim %d classes %d", got.FeatureDim, got.NumClasses)
	}
	for i := range d.TrainSet {
		if got.TrainSet[i] != d.TrainSet[i] {
			t.Fatalf("train set differs at %d", i)
		}
	}
	for i := range d.Labels {
		if got.Labels[i] != d.Labels[i] {
			t.Fatalf("labels differ at %d", i)
		}
	}
	for i := range d.Features {
		if got.Features[i] != d.Features[i] {
			t.Fatalf("features differ at %d", i)
		}
	}
}

func TestDatasetRoundTripWithoutOptionalSections(t *testing.T) {
	d, err := Generate(tiny(KindSocial)) // no labels, no features
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(&buf, "x")
	if err != nil {
		t.Fatal(err)
	}
	if got.Labels != nil || got.Features != nil {
		t.Error("optional sections materialized from nothing")
	}
	if got.Graph.NumEdges() != d.Graph.NumEdges() {
		t.Error("graph corrupted")
	}
}

func TestReadDatasetRejectsGarbage(t *testing.T) {
	if _, err := ReadDataset(bytes.NewReader([]byte("definitely not a dataset.....")), "x"); err == nil {
		t.Error("garbage accepted")
	}
}

// FuzzReadDataset feeds arbitrary bytes to ReadDataset, the decoder behind
// the public gnnlab.ReadDataset. Corrupt input must come back as an error,
// never a panic or an allocation sized by an unchecked header; a dataset
// that does decode must be internally consistent and serve reads.
func FuzzReadDataset(f *testing.F) {
	g, err := graph.FromAdjacency([][]int32{{1, 2}, {0, 2, 3}, {3}, {0}})
	if err != nil {
		f.Fatal(err)
	}
	d := &Dataset{
		Name: "fuzz", Graph: g, FeatureDim: 2, NumClasses: 2,
		Features: []float32{0, 1, 2, 3, 4, 5, 6, 7},
		Labels:   []int32{0, 1, 1, 0},
		TrainSet: []int32{0, 2},
	}
	for _, seed := range []*Dataset{d, PackDataset(d)} {
		var buf bytes.Buffer
		if err := WriteDataset(&buf, seed); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// An empty dataset whose CSR header claims 2^27 vertices and no body.
	hdr := binary.LittleEndian.AppendUint32(nil, datasetMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, 3)          // labels + features
	hdr = binary.LittleEndian.AppendUint32(hdr, 2)          // dim
	hdr = binary.LittleEndian.AppendUint32(hdr, 2)          // classes
	hdr = binary.LittleEndian.AppendUint64(hdr, 0)          // train set length
	hdr = binary.LittleEndian.AppendUint32(hdr, 0x474E4C01) // CSR magic
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)          // unweighted
	hdr = binary.LittleEndian.AppendUint64(hdr, 1<<27)      // vertices
	hdr = binary.LittleEndian.AppendUint64(hdr, 0)          // edges
	f.Add(hdr)

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDataset(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		n := d.NumVertices()
		if d.Labels != nil && len(d.Labels) != n {
			t.Fatalf("%d labels for %d vertices", len(d.Labels), n)
		}
		if d.Features != nil && len(d.Features) != n*d.FeatureDim {
			t.Fatalf("%d features for %d vertices × dim %d", len(d.Features), n, d.FeatureDim)
		}
		for v := 0; v < n && v < 512; v++ {
			for _, u := range d.Graph.Adj(int32(v)) {
				if u < 0 || int(u) >= n {
					t.Fatalf("vertex %d has out-of-range neighbor %d", v, u)
				}
			}
		}
	})
}

// TestPackedDatasetRoundTrip: a dataset whose topology was converted to
// the packed layout serializes through the same WriteDataset format (the
// graph section is self-describing) and reads back as a *graph.Packed
// with identical adjacency and sidecar sections.
func TestPackedDatasetRoundTrip(t *testing.T) {
	base, err := Generate(tiny(KindCommunity))
	if err != nil {
		t.Fatal(err)
	}
	d := PackDataset(base)
	if _, ok := d.Graph.(*graph.Packed); !ok {
		t.Fatalf("PackDataset left a %T", d.Graph)
	}
	if d.CSR() != nil {
		t.Error("packed dataset still claims concrete CSR storage")
	}
	// Shallow copy: sidecars shared, base dataset untouched.
	if base.CSR() == nil {
		t.Error("PackDataset mutated the input dataset")
	}
	if &d.TrainSet[0] != &base.TrainSet[0] || &d.Features[0] != &base.Features[0] {
		t.Error("sidecar sections were copied, not shared")
	}
	if PackDataset(base).Graph != d.Graph {
		t.Error("conversion not memoized per CSR")
	}
	if PackDataset(d) != d {
		t.Error("re-packing a packed dataset should be a no-op")
	}

	var buf bytes.Buffer
	if err := WriteDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(&buf, d.Name)
	if err != nil {
		t.Fatal(err)
	}
	gp, ok := got.Graph.(*graph.Packed)
	if !ok {
		t.Fatalf("round trip produced a %T, want *graph.Packed", got.Graph)
	}
	if gp.NumVertices() != d.NumVertices() || gp.NumEdges() != d.Graph.NumEdges() {
		t.Fatalf("graph shape changed: %d/%d vs %d/%d",
			gp.NumVertices(), gp.NumEdges(), d.NumVertices(), d.Graph.NumEdges())
	}
	for v := int32(0); int(v) < d.NumVertices(); v++ {
		want := d.Graph.Adj(v)
		if gotAdj := gp.Adj(v); len(gotAdj) != len(want) {
			t.Fatalf("vertex %d: degree %d vs %d", v, len(gotAdj), len(want))
		} else {
			for i := range want {
				if gotAdj[i] != want[i] {
					t.Fatalf("vertex %d: adjacency differs at %d", v, i)
				}
			}
		}
	}
	if got.FeatureDim != d.FeatureDim || got.NumClasses != d.NumClasses {
		t.Errorf("metadata changed: dim %d classes %d", got.FeatureDim, got.NumClasses)
	}
	for i := range d.TrainSet {
		if got.TrainSet[i] != d.TrainSet[i] {
			t.Fatalf("train set differs at %d", i)
		}
	}
	for i := range d.Labels {
		if got.Labels[i] != d.Labels[i] {
			t.Fatalf("labels differ at %d", i)
		}
	}
	for i := range d.Features {
		if got.Features[i] != d.Features[i] {
			t.Fatalf("features differ at %d", i)
		}
	}
}
