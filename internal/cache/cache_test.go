package cache

import (
	"testing"
	"testing/quick"

	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
)

func skewedGraph(seed uint64, n, e int) *graph.CSR {
	r := rng.New(seed)
	z := rng.NewZipf(uint64(n), 1.1)
	b := graph.NewBuilder(n, true)
	perm := r.Perm(n)
	for i := 0; i < e; i++ {
		src := int32(r.Intn(n))
		dst := perm[z.Draw(r)]
		if src == dst {
			continue
		}
		b.AddEdge(src, dst, float32(r.Float64())+0.01)
	}
	g, err := b.Build(false)
	if err != nil {
		panic(err)
	}
	return g
}

func trainSet(n, k int, seed uint64) []int32 {
	r := rng.New(seed)
	p := r.Perm(n)
	ts := append([]int32(nil), p[:k]...)
	return ts
}

func TestHotnessRankDescendingWithTies(t *testing.T) {
	h := NewHotness([]float64{1, 3, 3, 0, 2})
	rank := h.Rank()
	want := []int32{1, 2, 4, 0, 3} // ties (1,2) broken by ascending ID
	for i, v := range want {
		if rank[i] != v {
			t.Fatalf("rank = %v, want %v", rank, want)
		}
	}
}

func TestDegreeHotness(t *testing.T) {
	g, _ := graph.FromAdjacency([][]int32{{1, 2, 3}, {0}, {}, {0, 1}})
	h := DegreeHotness(g)
	if h.Score[0] != 3 || h.Score[2] != 0 || h.Score[3] != 2 {
		t.Errorf("degree scores %v", h.Score)
	}
	if rank := h.Rank(); rank[0] != 0 {
		t.Errorf("rank[0] = %d, want 0", rank[0])
	}
}

func TestRandomHotnessIsPermutationLike(t *testing.T) {
	h := RandomHotness(100, rng.New(1))
	rank := h.Rank()
	seen := make([]bool, 100)
	for _, v := range rank {
		if seen[v] {
			t.Fatal("duplicate in random ranking")
		}
		seen[v] = true
	}
}

func TestSlotsAndRatio(t *testing.T) {
	if got := SlotsFor(1000, 100, 50); got != 10 {
		t.Errorf("SlotsFor = %d, want 10", got)
	}
	if got := SlotsFor(1_000_000, 100, 50); got != 50 {
		t.Errorf("SlotsFor capped = %d, want 50", got)
	}
	if got := SlotsFor(-5, 100, 50); got != 0 {
		t.Errorf("SlotsFor negative budget = %d, want 0", got)
	}
	if got := RatioFor(10, 40); got != 0.25 {
		t.Errorf("RatioFor = %v, want 0.25", got)
	}
	if got := RatioFor(1, 0); got != 0 {
		t.Errorf("RatioFor empty = %v", got)
	}
}

func TestTableLoadAndLookup(t *testing.T) {
	ranking := []int32{3, 1, 4, 0, 2}
	tab, err := Load(ranking, 3, 5, 128)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumSlots() != 3 || tab.Ratio() != 0.6 || tab.VertexFeatureBytes() != 128 {
		t.Errorf("table shape: slots=%d ratio=%v row bytes=%d", tab.NumSlots(), tab.Ratio(), tab.VertexFeatureBytes())
	}
	for _, v := range []int32{3, 1, 4} {
		if _, ok := tab.Slot(v); !ok {
			t.Errorf("vertex %d should be cached", v)
		}
	}
	for _, v := range []int32{0, 2} {
		if _, ok := tab.Slot(v); ok {
			t.Errorf("vertex %d should not be cached", v)
		}
	}
	if slot, ok := tab.Slot(4); !ok || slot != 2 {
		t.Errorf("Slot(4) = %d,%v want 2,true", slot, ok)
	}
}

func TestTableLoadErrors(t *testing.T) {
	if _, err := Load([]int32{0, 0}, 2, 5, 8); err == nil {
		t.Error("Load accepted duplicate ranking entry")
	}
	if _, err := Load([]int32{9}, 1, 5, 8); err == nil {
		t.Error("Load accepted out-of-range vertex")
	}
	if _, err := Load([]int32{0}, 2, 5, 8); err == nil {
		t.Error("Load accepted slots > len(ranking)")
	}
}

func TestTableExtractAccounting(t *testing.T) {
	tab, _ := Load([]int32{0, 1}, 2, 5, 100)
	hits, misses := tab.Extract([]int32{0, 1, 2, 3})
	if hits != 2 || misses != 2 {
		t.Fatalf("Extract = %d/%d, want 2/2", hits, misses)
	}
	st := tab.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.MissBytes != 200 {
		t.Errorf("stats %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate %v", st.HitRate())
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty hit rate should be 0")
	}
}

func TestEmptyTable(t *testing.T) {
	tab := Empty(10, 64)
	hits, misses := tab.Extract([]int32{1, 2, 3})
	if hits != 0 || misses != 3 {
		t.Errorf("empty cache: %d/%d", hits, misses)
	}
}

func TestFootprintCountsMatchManual(t *testing.T) {
	g := skewedGraph(1, 300, 4000)
	ts := trainSet(300, 30, 2)
	alg := sampling.NewKHop([]int{3, 2}, sampling.FisherYates)
	fp := CollectFootprintN(g, alg, ts, 10, 2, 7, 0)
	var total int64
	for _, c := range fp.Extractions {
		total += c
	}
	if total != fp.TotalExtractions {
		t.Errorf("extraction counts sum %d != TotalExtractions %d", total, fp.TotalExtractions)
	}
	if fp.TotalExtractions == 0 || fp.SampledEdges == 0 {
		t.Error("empty footprint")
	}
	// Visits >= extractions per vertex: a vertex is extracted once per
	// batch but may be visited multiple times.
	visits := make([]int64, len(fp.Extractions))
	for _, ef := range CollectEpochFootprintsN(g, alg, ts, 10, 2, 7, 0) {
		for v, c := range ef.Visits {
			visits[v] += c
		}
	}
	for v := range visits {
		if visits[v] < fp.Extractions[v] {
			t.Fatalf("vertex %d: visits %d < extractions %d", v, visits[v], fp.Extractions[v])
		}
	}
}

func TestHitRateMonotoneInSlots(t *testing.T) {
	g := skewedGraph(3, 300, 4000)
	ts := trainSet(300, 30, 4)
	alg := sampling.NewKHop([]int{3, 2}, sampling.FisherYates)
	fp := CollectFootprintN(g, alg, ts, 10, 2, 7, 0)
	rank := fp.OptimalHotness().Rank()
	prev := -1.0
	for slots := 0; slots <= 300; slots += 30 {
		hr := fp.HitRate(rank, slots)
		if hr < prev-1e-9 {
			t.Fatalf("hit rate decreased at %d slots: %v < %v", slots, hr, prev)
		}
		prev = hr
	}
	if hr := fp.HitRate(rank, 300); hr != 1 {
		t.Errorf("full cache hit rate %v, want 1", hr)
	}
}

// TestOptimalDominates is the core oracle property: no policy can beat the
// optimal ranking on the footprint it was derived from.
func TestOptimalDominates(t *testing.T) {
	g := skewedGraph(5, 400, 6000)
	ts := trainSet(400, 40, 6)
	alg := sampling.NewKHop([]int{4, 3}, sampling.FisherYates)
	fp := CollectFootprintN(g, alg, ts, 10, 2, 7, 0)
	opt := fp.OptimalHotness().Rank()
	rivals := [][]int32{
		DegreeHotness(g).Rank(),
		RandomHotness(400, rng.New(1)).Rank(),
		PreSC(g, alg, ts, 10, 1, 99).Hotness.Rank(),
	}
	for _, slots := range []int{20, 40, 100, 200} {
		optHR := fp.HitRate(opt, slots)
		for i, r := range rivals {
			if hr := fp.HitRate(r, slots); hr > optHR+1e-9 {
				t.Errorf("policy %d beats optimal at %d slots: %v > %v", i, slots, hr, optHR)
			}
		}
	}
}

func TestPreSCBeatsRandomOnSkewedGraph(t *testing.T) {
	g := skewedGraph(8, 500, 10000)
	ts := trainSet(500, 50, 9)
	alg := sampling.NewKHop([]int{5, 3}, sampling.FisherYates)
	fp := CollectFootprintN(g, alg, ts, 10, 3, 7, 0)
	pre := PreSC(g, alg, ts, 10, 1, 99).Hotness.Rank()
	rnd := RandomHotness(500, rng.New(2)).Rank()
	slots := 50
	if hrP, hrR := fp.HitRate(pre, slots), fp.HitRate(rnd, slots); hrP <= hrR {
		t.Errorf("PreSC %v <= Random %v on a skewed graph", hrP, hrR)
	}
}

func TestPreSCDeterministic(t *testing.T) {
	g := skewedGraph(10, 200, 3000)
	ts := trainSet(200, 20, 11)
	alg := sampling.NewKHop([]int{3}, sampling.FisherYates)
	a := PreSC(g, alg, ts, 10, 2, 55)
	b := PreSC(g, alg, ts, 10, 2, 55)
	for v := range a.VisitCounts {
		if a.VisitCounts[v] != b.VisitCounts[v] {
			t.Fatalf("PreSC not deterministic at vertex %d", v)
		}
	}
	if a.Epochs != 2 || a.SampledEdges == 0 {
		t.Errorf("PreSC result %+v", a)
	}
}

func TestTransferredBytes(t *testing.T) {
	g := skewedGraph(12, 200, 3000)
	ts := trainSet(200, 20, 13)
	alg := sampling.NewKHop([]int{3}, sampling.FisherYates)
	fp := CollectFootprintN(g, alg, ts, 10, 1, 7, 0)
	rank := fp.OptimalHotness().Rank()
	if got := fp.TransferredBytes(rank, 200, 64); got != 0 {
		t.Errorf("full cache still transfers %d bytes", got)
	}
	if got := fp.TransferredBytes(rank, 0, 64); got != fp.TotalExtractions*64 {
		t.Errorf("empty cache transfers %d, want %d", got, fp.TotalExtractions*64)
	}
}

func TestSimilaritySelfIsOne(t *testing.T) {
	g := skewedGraph(14, 300, 5000)
	ts := trainSet(300, 30, 15)
	alg := sampling.NewKHop([]int{4}, sampling.FisherYates)
	fps := CollectEpochFootprintsN(g, alg, ts, 10, 2, 7, 0)
	if got := Similarity(fps[0], fps[0], 0.1); got != 1 {
		t.Errorf("self-similarity %v, want 1", got)
	}
	cross := Similarity(fps[0], fps[1], 0.1)
	if cross <= 0 || cross > 1 {
		t.Errorf("cross similarity %v out of (0,1]", cross)
	}
}

func TestSimilarityBoundsProperty(t *testing.T) {
	g := skewedGraph(16, 200, 2000)
	ts := trainSet(200, 20, 17)
	alg := sampling.NewKHop([]int{3}, sampling.FisherYates)
	fps := CollectEpochFootprintsN(g, alg, ts, 10, 4, 7, 0)
	if err := quick.Check(func(a, b uint8, fRaw uint8) bool {
		i, j := int(a)%4, int(b)%4
		f := 0.01 + float64(fRaw%50)/100
		s := Similarity(fps[i], fps[j], f)
		return s >= 0 && s <= 1+1e-9
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCountHotness(t *testing.T) {
	h := CountHotness([]int64{5, 0, 9})
	if h.Score[2] != 9 || h.Score[1] != 0 {
		t.Errorf("CountHotness %v", h.Score)
	}
}
