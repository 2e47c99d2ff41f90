package nn

import (
	"bytes"
	"math"
	"testing"

	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/tensor"
	"gnnlab/internal/workload"
)

func testGraph(seed uint64, n, deg int) *graph.CSR {
	r := rng.New(seed)
	b := graph.NewBuilder(n, false)
	for v := 0; v < n; v++ {
		for i := 0; i < deg; i++ {
			dst := int32(r.Intn(n))
			if dst != int32(v) {
				b.AddEdge(int32(v), dst, 0)
			}
		}
	}
	g, err := b.Build(false)
	if err != nil {
		panic(err)
	}
	return g
}

func sampleFor(t *testing.T, g *graph.CSR, seeds []int32, fanouts []int) *sampling.Sample {
	t.Helper()
	alg := sampling.NewKHop(fanouts, sampling.FisherYates)
	s := alg.Sample(g, seeds, rng.New(7))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// newCompact compacts s into a new Compact: a new arena per call.
func newCompact(s *sampling.Sample) (*Compact, error) {
	c := &Compact{}
	return c, NewCompactInto(c, s)
}

func TestCompactStructure(t *testing.T) {
	g := testGraph(1, 100, 5)
	s := sampleFor(t, g, []int32{3, 9}, []int{3, 2})
	c, err := newCompact(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumSeeds != 2 || c.NumLevels != 2 {
		t.Errorf("compact shape: %d seeds %d levels", c.NumSeeds, c.NumLevels)
	}
	if c.Needed[0] != c.NumVertices || c.Needed[2] != 2 {
		t.Errorf("Needed = %v", c.Needed)
	}
	// Every sample edge must appear in the adjacency CSR.
	total := 0
	for _, l := range s.Layers {
		total += len(l.Src)
	}
	if int(c.AdjStart[c.NumVertices]) != total {
		t.Errorf("compact has %d edges, sample has %d", c.AdjStart[c.NumVertices], total)
	}
	// Neighbors of the first seed must match its sample layer edges.
	want := map[int32]bool{}
	for i, d := range s.Layers[0].Dst {
		if d == 0 {
			want[s.Layers[0].Src[i]] = true
		}
	}
	for _, nbr := range c.Neighbors(0) {
		if !want[nbr] {
			t.Errorf("unexpected neighbor %d of seed 0", nbr)
		}
		delete(want, nbr)
	}
	if len(want) != 0 {
		t.Errorf("missing neighbors %v of seed 0", want)
	}
}

func TestCompactRejectsBadSample(t *testing.T) {
	s := &sampling.Sample{Seeds: []int32{1}, Input: []int32{2}} // input[0] != seed
	if _, err := newCompact(s); err == nil {
		t.Error("NewCompactInto accepted inconsistent sample")
	}
}

// numericalGradCheck verifies the model's analytic parameter gradients
// against central finite differences of the loss.
func numericalGradCheck(t *testing.T, kind workload.ModelKind, layers int) {
	t.Helper()
	g := testGraph(2, 60, 4)
	s := sampleFor(t, g, []int32{1, 2, 3}, fanoutsFor(layers))
	c, err := newCompact(s)
	if err != nil {
		t.Fatal(err)
	}
	const dim, hidden, classes = 5, 6, 3
	model := NewModel(kind, layers, dim, hidden, classes, 99)
	r := rng.New(3)
	feats := tensor.New(c.NumVertices, dim)
	for i := range feats.Data {
		feats.Data[i] = float32(r.NormFloat64())
	}
	labels := []int32{0, 1, 2}

	lossAt := func() float64 {
		logits, _, err := model.ForwardWS(NewWorkspace(), c, feats)
		if err != nil {
			t.Fatal(err)
		}
		grad := tensor.New(logits.Rows, logits.Cols)
		loss, _ := tensor.SoftmaxCrossEntropy(logits, labels, grad)
		return loss
	}

	if _, _, err := model.LossAndGradWS(NewWorkspace(), c, feats, labels); err != nil {
		t.Fatal(err)
	}
	const eps = 1e-2
	checked := 0
	for pi, p := range model.Params() {
		// Spot-check a handful of coordinates per parameter.
		for _, i := range []int{0, len(p.Value.Data) / 2, len(p.Value.Data) - 1} {
			analytic := float64(p.Grad.Data[i])
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := lossAt()
			p.Value.Data[i] = orig - eps
			lm := lossAt()
			p.Value.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			scale := math.Max(1, math.Abs(numeric))
			if diff := math.Abs(numeric-analytic) / scale; diff > 0.05 {
				t.Errorf("%v param %d coord %d: analytic %.5f numeric %.5f",
					kind, pi, i, analytic, numeric)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no gradients checked")
	}
}

func fanoutsFor(layers int) []int {
	f := make([]int, layers)
	for i := range f {
		f[i] = 3
	}
	return f
}

func TestGCNGradients(t *testing.T)       { numericalGradCheck(t, workload.GCN, 2) }
func TestGraphSAGEGradients(t *testing.T) { numericalGradCheck(t, workload.GraphSAGE, 2) }
func TestPinSAGEGradients(t *testing.T)   { numericalGradCheck(t, workload.PinSAGE, 3) }

func TestForwardShapeChecks(t *testing.T) {
	g := testGraph(4, 50, 4)
	s := sampleFor(t, g, []int32{1}, []int{2, 2})
	c, _ := newCompact(s)
	model := NewModel(workload.GCN, 3, 4, 8, 2, 1) // 3 layers vs 2-hop sample
	feats := tensor.New(c.NumVertices, 4)
	if _, _, err := model.ForwardWS(NewWorkspace(), c, feats); err == nil {
		t.Error("ForwardWS accepted mismatched hop/layer counts")
	}
	model = NewModel(workload.GCN, 2, 4, 8, 2, 1)
	bad := tensor.New(c.NumVertices+1, 4)
	if _, _, err := model.ForwardWS(NewWorkspace(), c, bad); err == nil {
		t.Error("ForwardWS accepted wrong feature row count")
	}
}

func TestLogitsShape(t *testing.T) {
	g := testGraph(5, 80, 5)
	s := sampleFor(t, g, []int32{1, 2, 3, 4}, []int{3, 2})
	c, _ := newCompact(s)
	model := NewModel(workload.GraphSAGE, 2, 6, 8, 5, 2)
	feats := tensor.New(c.NumVertices, 6)
	logits, ctxs, err := model.ForwardWS(NewWorkspace(), c, feats)
	if err != nil {
		t.Fatal(err)
	}
	if logits.Rows != 4 || logits.Cols != 5 {
		t.Errorf("logits %dx%d, want 4x5", logits.Rows, logits.Cols)
	}
	if len(ctxs) != 2 {
		t.Errorf("%d contexts, want 2", len(ctxs))
	}
}

func TestPredictCounts(t *testing.T) {
	g := testGraph(6, 80, 5)
	s := sampleFor(t, g, []int32{1, 2}, []int{2})
	c, _ := newCompact(s)
	model := NewModel(workload.GCN, 1, 4, 4, 2, 3)
	feats := tensor.New(c.NumVertices, 4)
	for i := range feats.Data {
		feats.Data[i] = 0.1
	}
	correct, err := model.PredictWS(NewWorkspace(), c, feats, []int32{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if correct < 0 || correct > 2 {
		t.Errorf("Predict = %d out of range", correct)
	}
}

// TestClassifyWSMatchesPredict cross-checks the serving classifier
// against PredictWS: feeding ClassifyWS's own predictions back to
// PredictWS as labels must count every seed correct, and the dst buffer
// must be reused when capacity allows.
func TestClassifyWSMatchesPredict(t *testing.T) {
	g := testGraph(6, 80, 5)
	s := sampleFor(t, g, []int32{1, 2, 7}, []int{3, 2})
	c, _ := newCompact(s)
	model := NewModel(workload.GraphSAGE, 2, 4, 8, 3, 3)
	feats := tensor.New(c.NumVertices, 4)
	for i := range feats.Data {
		feats.Data[i] = float32(i%7) * 0.1
	}
	buf := make([]int32, 0, 8)
	classes, err := model.ClassifyWS(NewWorkspace(), c, feats, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 3 {
		t.Fatalf("%d classes, want 3", len(classes))
	}
	if &classes[0] != &buf[:1][0] {
		t.Error("ClassifyWS did not reuse the caller's buffer")
	}
	for i, cl := range classes {
		if cl < 0 || cl >= 3 {
			t.Errorf("class[%d] = %d outside [0,3)", i, cl)
		}
	}
	correct, err := model.PredictWS(NewWorkspace(), c, feats, classes)
	if err != nil {
		t.Fatal(err)
	}
	if correct != 3 {
		t.Errorf("PredictWS agrees on %d/3 argmaxes", correct)
	}
}

func TestSeedLabels(t *testing.T) {
	g := testGraph(7, 20, 3)
	s := sampleFor(t, g, []int32{5}, []int{2})
	labels := make([]int32, 20)
	labels[5] = 9
	got := SeedLabelsInto(nil, s, labels)
	if len(got) != 1 || got[0] != 9 {
		t.Errorf("SeedLabelsInto = %v", got)
	}
}

// TestTrainingReducesLoss runs a few optimizer steps on one batch and
// expects the loss to drop — an end-to-end sanity check of the stack.
func TestTrainingReducesLoss(t *testing.T) {
	g := testGraph(8, 100, 5)
	s := sampleFor(t, g, []int32{1, 2, 3, 4, 5}, []int{3, 3})
	c, _ := newCompact(s)
	const dim = 8
	model := NewModel(workload.GCN, 2, dim, 16, 3, 5)
	opt := tensor.NewAdam(0.05, model.Params())
	r := rng.New(9)
	feats := tensor.New(c.NumVertices, dim)
	for i := range feats.Data {
		feats.Data[i] = float32(r.NormFloat64())
	}
	labels := []int32{0, 1, 2, 0, 1}
	first, _, err := model.LossAndGradWS(NewWorkspace(), c, feats, labels)
	if err != nil {
		t.Fatal(err)
	}
	opt.Step()
	var last float64
	for i := 0; i < 50; i++ {
		last, _, err = model.LossAndGradWS(NewWorkspace(), c, feats, labels)
		if err != nil {
			t.Fatal(err)
		}
		opt.Step()
	}
	if last > first/2 {
		t.Errorf("loss barely moved: %v -> %v", first, last)
	}
}

func TestAggKindString(t *testing.T) {
	for k, want := range map[AggKind]string{AggGCN: "gcn", AggSAGE: "sage", AggPinSAGE: "pinsage"} {
		if k.String() != want {
			t.Errorf("AggKind %d String = %q", k, k.String())
		}
	}
}

func TestGATGradients(t *testing.T) { numericalGradCheck(t, workload.GAT, 2) }

func TestGATTrainsOnTinyTask(t *testing.T) {
	g := testGraph(12, 100, 5)
	s := sampleFor(t, g, []int32{1, 2, 3, 4}, []int{3, 3})
	c, _ := newCompact(s)
	const dim = 6
	model := NewModel(workload.GAT, 2, dim, 12, 3, 7)
	opt := tensor.NewAdam(0.03, model.Params())
	r := rng.New(13)
	feats := tensor.New(c.NumVertices, dim)
	for i := range feats.Data {
		feats.Data[i] = float32(r.NormFloat64())
	}
	labels := []int32{0, 1, 2, 0}
	first, _, err := model.LossAndGradWS(NewWorkspace(), c, feats, labels)
	if err != nil {
		t.Fatal(err)
	}
	opt.Step()
	var last float64
	for i := 0; i < 60; i++ {
		last, _, err = model.LossAndGradWS(NewWorkspace(), c, feats, labels)
		if err != nil {
			t.Fatal(err)
		}
		opt.Step()
	}
	if last > first/2 {
		t.Errorf("GAT loss barely moved: %v -> %v", first, last)
	}
}

func TestGATAttentionSumsToOne(t *testing.T) {
	g := testGraph(14, 60, 4)
	s := sampleFor(t, g, []int32{1, 2}, []int{3})
	c, _ := newCompact(s)
	layer := NewGAT(5, 7, false, rng.New(15))
	feats := tensor.New(c.NumVertices, 5)
	for i := range feats.Data {
		feats.Data[i] = float32(i%7) * 0.1
	}
	_, ctx := layer.ForwardLayer(NewWorkspace(), c, feats, 2)
	for t2, alpha := range ctx.(*gatCtx).heads[0].alphas {
		var sum float32
		for _, a := range alpha {
			sum += a
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("target %d attention sums to %v", t2, sum)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	g := testGraph(20, 80, 5)
	s := sampleFor(t, g, []int32{1, 2}, []int{3, 2})
	c, _ := newCompact(s)
	const dim = 6
	src := NewModel(workload.GraphSAGE, 2, dim, 8, 3, 11)
	dst := NewModel(workload.GraphSAGE, 2, dim, 8, 3, 99) // different init
	feats := tensor.New(c.NumVertices, dim)
	for i := range feats.Data {
		feats.Data[i] = float32(i%5) * 0.2
	}

	var buf bytes.Buffer
	if err := src.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	a, _, err := src.ForwardWS(NewWorkspace(), c, feats)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := dst.ForwardWS(NewWorkspace(), c, feats)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("restored model diverges at logit %d: %v vs %v", i, a.Data[i], b.Data[i])
		}
	}
}

func TestCheckpointShapeMismatch(t *testing.T) {
	src := NewModel(workload.GCN, 2, 4, 8, 3, 1)
	other := NewModel(workload.GCN, 2, 4, 16, 3, 1) // wider hidden
	var buf bytes.Buffer
	if err := src.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := other.LoadCheckpoint(&buf); err == nil {
		t.Error("LoadCheckpoint accepted mismatched architecture")
	}
	if err := src.LoadCheckpoint(bytes.NewReader([]byte("garbage..."))); err == nil {
		t.Error("LoadCheckpoint accepted garbage")
	}
}

func TestCopyAndAccumulate(t *testing.T) {
	a := NewModel(workload.GCN, 1, 3, 3, 2, 1)
	b := NewModel(workload.GCN, 1, 3, 3, 2, 2)
	if err := CopyParams(b.Params(), a.Params()); err != nil {
		t.Fatal(err)
	}
	for i, p := range a.Params() {
		for j := range p.Value.Data {
			if b.Params()[i].Value.Data[j] != p.Value.Data[j] {
				t.Fatal("CopyParams incomplete")
			}
		}
	}
	a.Params()[0].Grad.Data[0] = 1
	b.Params()[0].Grad.Data[0] = 2
	if err := AccumulateGrads(a.Params(), b.Params()); err != nil {
		t.Fatal(err)
	}
	if got := a.Params()[0].Grad.Data[0]; got != 3 {
		t.Errorf("accumulated grad %v, want 3", got)
	}
	if got := b.Params()[0].Grad.Data[0]; got != 0 {
		t.Errorf("source grad %v not cleared", got)
	}
	// Mismatched parameter lists must error.
	short := NewModel(workload.GCN, 1, 3, 3, 2, 3)
	if err := CopyParams(short.Params()[:1], a.Params()); err == nil {
		t.Error("CopyParams accepted mismatched lists")
	}
}

// TestGATMultiHeadGradients runs the numerical gradient check against a
// 2-head attention layer stack.
func TestGATMultiHeadGradients(t *testing.T) {
	g := testGraph(2, 60, 4)
	s := sampleFor(t, g, []int32{1, 2, 3}, fanoutsFor(2))
	c, err := newCompact(s)
	if err != nil {
		t.Fatal(err)
	}
	const dim, hidden, classes = 5, 6, 3
	model := &Model{Kind: workload.GAT}
	r := rng.New(77)
	model.Layers = append(model.Layers,
		NewGATMultiHead(dim, hidden, 2, true, r.Split(0)),
		NewGATMultiHead(hidden, classes, 1, false, r.Split(1)))
	feats := tensor.New(c.NumVertices, dim)
	rr := rng.New(3)
	for i := range feats.Data {
		feats.Data[i] = float32(rr.NormFloat64())
	}
	labels := []int32{0, 1, 2}
	lossAt := func() float64 {
		logits, _, err := model.ForwardWS(NewWorkspace(), c, feats)
		if err != nil {
			t.Fatal(err)
		}
		grad := tensor.New(logits.Rows, logits.Cols)
		loss, _ := tensor.SoftmaxCrossEntropy(logits, labels, grad)
		return loss
	}
	if _, _, err := model.LossAndGradWS(NewWorkspace(), c, feats, labels); err != nil {
		t.Fatal(err)
	}
	const eps = 1e-2
	for pi, p := range model.Params() {
		for _, i := range []int{0, len(p.Value.Data) - 1} {
			analytic := float64(p.Grad.Data[i])
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := lossAt()
			p.Value.Data[i] = orig - eps
			lm := lossAt()
			p.Value.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			scale := math.Max(1, math.Abs(numeric))
			if diff := math.Abs(numeric-analytic) / scale; diff > 0.05 {
				t.Errorf("param %d coord %d: analytic %.5f numeric %.5f", pi, i, analytic, numeric)
			}
		}
	}
}

func TestGATMultiHeadPanicsOnBadSplit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("indivisible head split accepted")
		}
	}()
	NewGATMultiHead(4, 10, 3, true, rng.New(1))
}
