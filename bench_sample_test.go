package gnnlab

// BenchmarkSampleArena measures warm-arena sampling (sampling.ClonePooled)
// for every built-in algorithm, and full-sort cache ranking against top-k
// selection (cache.Hotness.RankTop) at 1M vertices. Per-call wall time,
// bytes and heap objects are measured directly from runtime.MemStats over
// a fixed call count. The zero-allocation steady state is pinned by
// internal/sampling's TestSampleSteadyStateZeroAllocs.

import (
	"runtime"
	"testing"
	"time"

	"gnnlab/internal/cache"
	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
)

// sampleBenchGraph builds a ~200k-vertex weighted random graph, the
// sampling substrate for all arena measurements.
func sampleBenchGraph(b *testing.B) *graph.CSR {
	b.Helper()
	const n = 200_000
	r := rng.New(17)
	bld := graph.NewBuilder(n, true)
	for v := 0; v < n; v++ {
		deg := 4 + r.Intn(16)
		for i := 0; i < deg; i++ {
			dst := int32(r.Intn(n))
			if dst == int32(v) {
				continue
			}
			bld.AddEdge(int32(v), dst, float32(r.Float64())+0.01)
		}
	}
	g, err := bld.Build(false)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func sampleBenchSeeds(n, max int, r *rng.Rand) []int32 {
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

// measureCalls runs fn `calls` times and returns per-call wall seconds,
// allocated bytes and heap objects, from MemStats deltas.
func measureCalls(calls int, fn func()) (secs, bytesPer, objsPer float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < calls; i++ {
		fn()
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	c := float64(calls)
	return wall / c,
		float64(after.TotalAlloc-before.TotalAlloc) / c,
		float64(after.Mallocs-before.Mallocs) / c
}

func BenchmarkSampleArena(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping arena benchmark in -short mode")
	}
	g := sampleBenchGraph(b)
	const calls = 300
	algs := []struct {
		name string
		mk   func() sampling.Algorithm
	}{
		{"khop", func() sampling.Algorithm { return sampling.NewKHop([]int{10, 5, 5}, sampling.FisherYates) }},
		{"weighted-khop", func() sampling.Algorithm { return sampling.NewWeightedKHop([]int{10, 5, 5}) }},
		{"random-walk", func() sampling.Algorithm { return sampling.NewRandomWalk(3, 4, 3, 5) }},
		{"cluster-gcn", func() sampling.Algorithm { return sampling.NewClusterGCN(256, 7) }},
		{"saint-node", func() sampling.Algorithm { return sampling.NewSAINTNode(4000) }},
		{"saint-edge", func() sampling.Algorithm { return sampling.NewSAINTEdge(6000) }},
	}
	for _, a := range algs {
		base := a.mk()
		sampling.Prepare(base, g) // lazy tables built outside the timing
		seedR := rng.New(23)
		sd := sampleBenchSeeds(256, g.NumVertices(), seedR)

		alg := sampling.ClonePooled(base)
		r := rng.New(31)
		for i := 0; i < 20; i++ { // warm the arena / allocator
			alg.Sample(g, sd, r)
		}
		ps, pb, po := measureCalls(calls, func() { alg.Sample(g, sd, r) })
		b.ReportMetric(ps*1e9, a.name+"-pooled-ns/op")
		b.ReportMetric(pb, a.name+"-pooled-B/op")
		b.ReportMetric(po, a.name+"-pooled-allocs/op")
	}

	// Cache ranking: full sort vs top-k selection over ≥1M vertices.
	const rankN = 1 << 20
	r := rng.New(3)
	score := make([]float64, rankN)
	for i := range score {
		score[i] = float64(r.Intn(1000))
	}
	h := cache.NewHotness(score)
	h.RankTop(rankN / 10) // warm
	fullS, _, _ := measureCalls(5, func() { h.Rank() })
	topS, _, _ := measureCalls(5, func() { h.RankTop(rankN / 10) })

	b.ReportMetric(fullS*1e3, "rank-full-sort-ms")
	b.ReportMetric(topS*1e3, "rank-top10pct-ms")
}
