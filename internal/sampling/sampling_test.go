package sampling

import (
	"testing"
	"testing/quick"

	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
)

// testGraph builds a random weighted graph where every vertex has at least
// minDeg out-neighbors.
func testGraph(seed uint64, n, avgDeg, minDeg int) *graph.CSR {
	r := rng.New(seed)
	b := graph.NewBuilder(n, true)
	for v := 0; v < n; v++ {
		deg := minDeg + r.Intn(2*avgDeg)
		for i := 0; i < deg; i++ {
			dst := int32(r.Intn(n))
			if dst == int32(v) {
				continue
			}
			b.AddEdge(int32(v), dst, float32(r.Float64())+0.01)
		}
	}
	g, err := b.Build(false)
	if err != nil {
		panic(err)
	}
	return g
}

func seeds(n, max int, r *rng.Rand) []int32 {
	out := make([]int32, 0, n)
	seen := map[int32]bool{}
	for len(out) < n {
		v := int32(r.Intn(max))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func TestKHopSampleValid(t *testing.T) {
	g := testGraph(1, 500, 8, 1)
	r := rng.New(2)
	alg := NewKHop([]int{5, 3}, FisherYates)
	for trial := 0; trial < 20; trial++ {
		s := alg.Sample(g, seeds(10, 500, r), r)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(s.Layers) != 2 {
			t.Fatalf("got %d layers, want 2", len(s.Layers))
		}
	}
}

func TestKHopFanoutBound(t *testing.T) {
	g := testGraph(3, 300, 10, 1)
	r := rng.New(4)
	alg := NewKHop([]int{4}, FisherYates)
	s := alg.Sample(g, seeds(20, 300, r), r)
	perTarget := map[int32]int{}
	for _, d := range s.Layers[0].Dst {
		perTarget[d]++
	}
	for target, c := range perTarget {
		if c > 4 {
			t.Errorf("target %d sampled %d neighbors, fanout 4", target, c)
		}
	}
}

func TestKHopTakesAllWhenDegreeSmall(t *testing.T) {
	g, err := graph.FromAdjacency([][]int32{{1, 2}, {0}, {}})
	if err != nil {
		t.Fatal(err)
	}
	alg := NewKHop([]int{10}, FisherYates)
	s := alg.Sample(g, []int32{0}, rng.New(1))
	if len(s.Layers[0].Src) != 2 {
		t.Errorf("sampled %d neighbors of a degree-2 vertex with fanout 10", len(s.Layers[0].Src))
	}
	if s.ScannedEdges != 2 || s.SampledEdges != 2 {
		t.Errorf("work accounting: scanned %d sampled %d, want 2/2", s.ScannedEdges, s.SampledEdges)
	}
}

func TestKHopZeroDegreeSeed(t *testing.T) {
	g, err := graph.FromAdjacency([][]int32{{}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	alg := NewKHop([]int{5, 5}, FisherYates)
	s := alg.Sample(g, []int32{0}, rng.New(1))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumInput() != 1 {
		t.Errorf("isolated seed produced %d inputs, want 1", s.NumInput())
	}
}

func TestSeedsComeFirstAndDeduped(t *testing.T) {
	g := testGraph(5, 200, 6, 1)
	r := rng.New(6)
	alg := NewKHop([]int{3, 3}, FisherYates)
	sd := seeds(8, 200, r)
	s := alg.Sample(g, sd, r)
	for i, v := range sd {
		if s.Input[i] != v {
			t.Fatalf("input[%d] = %d, want seed %d", i, s.Input[i], v)
		}
	}
	seen := map[int32]bool{}
	for _, v := range s.Input {
		if seen[v] {
			t.Fatalf("duplicate input %d", v)
		}
		seen[v] = true
	}
}

func TestReservoirScansFullDegree(t *testing.T) {
	g := testGraph(7, 100, 20, 12)
	r := rng.New(8)
	sd := seeds(10, 100, r)
	fy := NewKHop([]int{5}, FisherYates).Sample(g, sd, rng.New(9))
	rv := NewKHop([]int{5}, Reservoir).Sample(g, sd, rng.New(9))
	if rv.ScannedEdges <= fy.ScannedEdges {
		t.Errorf("reservoir scanned %d <= fisher-yates %d", rv.ScannedEdges, fy.ScannedEdges)
	}
	if fy.SampledEdges != rv.SampledEdges {
		t.Errorf("draw counts differ: %d vs %d", fy.SampledEdges, rv.SampledEdges)
	}
}

// TestUniformMethodsSameDistribution draws many single-hop samples with
// both methods and compares per-neighbor frequencies.
func TestUniformMethodsSameDistribution(t *testing.T) {
	g, err := graph.FromAdjacency([][]int32{{1, 2, 3, 4, 5, 6, 7, 8}, {}, {}, {}, {}, {}, {}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	const trials = 20000
	count := func(m NeighborMethod) []int {
		alg := NewKHop([]int{3}, m)
		r := rng.New(42)
		c := make([]int, 9)
		for i := 0; i < trials; i++ {
			s := alg.Sample(g, []int32{0}, r)
			for _, src := range s.Layers[0].Src {
				c[s.Input[src]]++
			}
		}
		return c
	}
	fy, rv := count(FisherYates), count(Reservoir)
	expect := float64(trials) * 3 / 8
	for v := 1; v <= 8; v++ {
		for name, c := range map[string]int{"fisher-yates": fy[v], "reservoir": rv[v]} {
			if f := float64(c); f < expect*0.9 || f > expect*1.1 {
				t.Errorf("%s neighbor %d count %d, want ~%.0f", name, v, c, expect)
			}
		}
	}
}

func TestWeightedPrefersHeavyEdges(t *testing.T) {
	// Vertex 0 has two neighbors: 1 (weight 9) and 2 (weight 1).
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1, 9)
	b.AddEdge(0, 2, 1)
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	alg := NewWeightedKHop([]int{1})
	r := rng.New(10)
	counts := map[int32]int{}
	for i := 0; i < 10000; i++ {
		s := alg.Sample(g, []int32{0}, r)
		for _, src := range s.Layers[0].Src {
			counts[s.Input[src]]++
		}
	}
	frac := float64(counts[1]) / float64(counts[1]+counts[2])
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("heavy edge drawn %.3f of the time, want ~0.9", frac)
	}
}

func TestWeightedSampleValid(t *testing.T) {
	g := testGraph(11, 400, 8, 1)
	alg := NewWeightedKHop([]int{4, 3})
	r := rng.New(12)
	for trial := 0; trial < 10; trial++ {
		s := alg.Sample(g, seeds(10, 400, r), r)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestWeightedPanicsOnUnweighted(t *testing.T) {
	g, _ := graph.FromAdjacency([][]int32{{1}, {}})
	defer func() {
		if recover() == nil {
			t.Error("weighted sampling accepted unweighted graph")
		}
	}()
	NewWeightedKHop([]int{1}).Sample(g, []int32{0}, rng.New(1))
}

func TestRandomWalkValidAndBounded(t *testing.T) {
	g := testGraph(13, 300, 10, 2)
	alg := NewRandomWalk(2, 4, 3, 5)
	r := rng.New(14)
	s := alg.Sample(g, seeds(10, 300, r), r)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	perTarget := map[int32]int{}
	for _, d := range s.Layers[0].Dst {
		perTarget[d]++
	}
	for target, c := range perTarget {
		if c > 5 {
			t.Errorf("target %d got %d walk neighbors, cap 5", target, c)
		}
	}
	if s.Walks == 0 {
		t.Error("no walk steps recorded")
	}
}

func TestRandomWalkExcludesSelf(t *testing.T) {
	// A two-cycle: walks from 0 revisit 0 often; it must not select
	// itself as its own neighbor.
	g, _ := graph.FromAdjacency([][]int32{{1}, {0}})
	alg := NewRandomWalk(1, 4, 4, 3)
	s := alg.Sample(g, []int32{0}, rng.New(15))
	for _, src := range s.Layers[0].Src {
		if s.Input[src] == 0 {
			t.Fatal("walk selected the seed as its own neighbor")
		}
	}
}

func TestAlgorithmNamesAndHops(t *testing.T) {
	cases := []struct {
		alg  Algorithm
		hops int
	}{
		{NewKHop([]int{15, 10, 5}, FisherYates), 3},
		{NewKHop([]int{25, 10}, Reservoir), 2},
		{NewWeightedKHop([]int{15, 10, 5}), 3},
		{NewRandomWalk(3, 4, 3, 5), 3},
	}
	for _, c := range cases {
		if c.alg.NumHops() != c.hops {
			t.Errorf("%s: NumHops = %d, want %d", c.alg.Name(), c.alg.NumHops(), c.hops)
		}
		if c.alg.Name() == "" {
			t.Error("empty algorithm name")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	alg := NewKHop([]int{5, 5}, FisherYates)
	clone := ClonePooled(alg).(*KHop)
	if clone == alg {
		t.Fatal("Clone returned the receiver")
	}
	g := testGraph(16, 200, 6, 1)
	r1, r2 := rng.New(17), rng.New(17)
	s1 := alg.Sample(g, []int32{1, 2, 3}, r1)
	s2 := clone.Sample(g, []int32{1, 2, 3}, r2)
	if s1.NumInput() != s2.NumInput() {
		t.Errorf("clone produced different sample: %d vs %d inputs", s1.NumInput(), s2.NumInput())
	}
}

func TestLocalizerProperty(t *testing.T) {
	if err := quick.Check(func(ids []uint16) bool {
		var loc localizer
		loc.reset(4)
		want := map[int32]int32{}
		for _, raw := range ids {
			id := int32(raw)
			local := loc.add(id)
			if prev, ok := want[id]; ok {
				if local != prev {
					return false
				}
			} else {
				if int(local) != len(want) {
					return false // locals must be assigned densely in order
				}
				want[id] = local
			}
		}
		if len(loc.input) != len(want) {
			return false
		}
		for local, global := range loc.input {
			if want[global] != int32(local) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBatches(t *testing.T) {
	ts := make([]int32, 25)
	for i := range ts {
		ts[i] = int32(i)
	}
	batches := Batches(ts, 10, rng.New(1))
	if len(batches) != 3 {
		t.Fatalf("got %d batches, want 3", len(batches))
	}
	if len(batches[0]) != 10 || len(batches[2]) != 5 {
		t.Errorf("batch sizes %d/%d, want 10/5", len(batches[0]), len(batches[2]))
	}
	seen := map[int32]bool{}
	for _, b := range batches {
		for _, v := range b {
			if seen[v] {
				t.Fatalf("vertex %d in two batches", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != 25 {
		t.Errorf("batches cover %d vertices, want 25", len(seen))
	}
	if NumBatches(25, 10) != 3 {
		t.Errorf("NumBatches(25,10) = %d", NumBatches(25, 10))
	}
}

func TestBatchesShuffle(t *testing.T) {
	ts := make([]int32, 100)
	for i := range ts {
		ts[i] = int32(i)
	}
	b1 := Batches(ts, 100, rng.New(1))
	b2 := Batches(ts, 100, rng.New(2))
	same := 0
	for i := range b1[0] {
		if b1[0][i] == b2[0][i] {
			same++
		}
	}
	if same > 20 {
		t.Errorf("different epoch RNGs gave %d/100 identical positions", same)
	}
	// Original slice must not be mutated.
	for i, v := range ts {
		if v != int32(i) {
			t.Fatal("Batches mutated the training set")
		}
	}
}

func TestSampleBytesPositive(t *testing.T) {
	g := testGraph(18, 100, 5, 1)
	s := NewKHop([]int{3}, FisherYates).Sample(g, []int32{0, 1}, rng.New(19))
	if s.Bytes() <= 0 {
		t.Errorf("Bytes() = %d", s.Bytes())
	}
	withMask := *s
	withMask.CachedMask = make([]bool, s.NumInput())
	if withMask.Bytes() <= s.Bytes() {
		t.Error("mask did not increase byte estimate")
	}
}

func TestWorkloadFactories(t *testing.T) {
	if got := ForGCN().Fanouts; len(got) != 3 || got[0] != 15 || got[1] != 10 || got[2] != 5 {
		t.Errorf("ForGCN fanouts %v", got)
	}
	if got := ForGraphSAGE().Fanouts; len(got) != 2 || got[0] != 25 || got[1] != 10 {
		t.Errorf("ForGraphSAGE fanouts %v", got)
	}
	psg := ForPinSAGE()
	if psg.Layers != 3 || psg.NumPaths != 4 || psg.WalkLength != 3 || psg.NumNeighbors != 5 {
		t.Errorf("ForPinSAGE = %+v", psg)
	}
}

func BenchmarkKHopSample(b *testing.B) {
	g := testGraph(20, 100000, 15, 2)
	alg := NewKHop([]int{15, 10, 5}, FisherYates)
	r := rng.New(21)
	sd := seeds(80, 100000, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = alg.Sample(g, sd, r)
	}
}

func BenchmarkWeightedSample(b *testing.B) {
	g := testGraph(22, 100000, 15, 2)
	alg := NewWeightedKHop([]int{15, 10, 5})
	r := rng.New(23)
	sd := seeds(80, 100000, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = alg.Sample(g, sd, r)
	}
}

func TestAliasTableDistribution(t *testing.T) {
	weights := []float32{1, 3, 0, 6}
	tab := NewAliasTable(weights)
	if tab.Len() != 4 {
		t.Fatalf("Len = %d", tab.Len())
	}
	r := rng.New(44)
	counts := make([]int, 4)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[tab.Draw(r)]++
	}
	if counts[2] != 0 {
		t.Errorf("zero-weight outcome drawn %d times", counts[2])
	}
	total := float64(draws)
	for i, w := range []float64{0.1, 0.3, 0, 0.6} {
		got := float64(counts[i]) / total
		if w == 0 {
			continue
		}
		if got < w*0.95 || got > w*1.05 {
			t.Errorf("outcome %d frequency %.4f, want ~%.1f", i, got, w)
		}
	}
}

func TestAliasTablePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":    func() { NewAliasTable(nil) },
		"negative": func() { NewAliasTable([]float32{1, -1}) },
		"all-zero": func() { NewAliasTable([]float32{0, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s weights accepted", name)
				}
			}()
			fn()
		}()
	}
}

// TestWeightedMethodsSameDistribution: CDF and alias draws must agree in
// distribution over a skewed adjacency list.
func TestWeightedMethodsSameDistribution(t *testing.T) {
	b := graph.NewBuilder(6, true)
	for i, w := range []float32{8, 4, 2, 1, 1} {
		b.AddEdge(0, int32(i+1), w)
	}
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 30000
	count := func(m WeightedDrawMethod) []int {
		alg := NewWeightedKHopMethod([]int{2}, m)
		r := rng.New(45)
		c := make([]int, 6)
		for i := 0; i < trials; i++ {
			s := alg.Sample(g, []int32{0}, r)
			for _, src := range s.Layers[0].Src {
				c[s.Input[src]]++
			}
		}
		return c
	}
	cdf, alias := count(WeightedCDF), count(WeightedAlias)
	for v := 1; v <= 5; v++ {
		a, b := float64(cdf[v]), float64(alias[v])
		if a == 0 || b == 0 {
			t.Fatalf("vertex %d never drawn: cdf %v alias %v", v, cdf, alias)
		}
		if b < a*0.9 || b > a*1.1 {
			t.Errorf("vertex %d: cdf %v vs alias %v diverge", v, cdf[v], alias[v])
		}
	}
}

func TestWeightedAliasSampleValid(t *testing.T) {
	g := testGraph(46, 300, 8, 1)
	alg := NewWeightedKHopMethod([]int{4, 3}, WeightedAlias)
	r := rng.New(47)
	for trial := 0; trial < 10; trial++ {
		s := alg.Sample(g, seeds(10, 300, r), r)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func BenchmarkWeightedSampleAlias(b *testing.B) {
	g := testGraph(22, 100000, 15, 2)
	alg := NewWeightedKHopMethod([]int{15, 10, 5}, WeightedAlias)
	r := rng.New(23)
	sd := seeds(80, 100000, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = alg.Sample(g, sd, r)
	}
}
