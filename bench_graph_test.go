package gnnlab

// BenchmarkSnapshotOverhead, BenchmarkApplyDelta and BenchmarkPackedDecode
// measure the graph-storage layer:
//
//   - SnapshotOverhead: the cost of taking a Delta snapshot (O(touched
//     rows), not O(|V|)), of compacting back to CSR, and the per-call
//     sampling overhead of reading through the overlay view versus the
//     flat CSR — the price of snapshot isolation on the hot path.
//   - ApplyDelta: incremental hotness maintenance. Decay+ApplyDelta per
//     round is measured at a fixed |Δ| across growing |V| (flat ⇒ the
//     update is O(|Δ|), independent of graph size) and at growing |Δ|
//     for a fixed |V| (linear in |Δ|), against the O(|V|) introselect
//     re-rank it feeds.
//   - PackedDecode: the compressed topology. Compression ratio and
//     bytes/edge on a power-law graph (deterministic; internal/graph's
//     TestPackedTopologyBytesGolden pins them exactly on a smaller graph
//     from the same generator), raw decode throughput, and the pooled
//     k-hop sampling overhead of decoding rows versus aliasing CSR
//     storage.

import (
	"fmt"
	"testing"

	"gnnlab/internal/cache"
	"gnnlab/internal/gen"
	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
)

func BenchmarkSnapshotOverhead(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping graph benchmark in -short mode")
	}
	g := sampleBenchGraph(b)
	n0 := g.NumVertices()
	r := rng.New(41)

	// A realistic round of drift: 1k new vertices and 20k overlay edges
	// spread over random rows.
	const newVerts, deltaEdges = 1_000, 20_000
	d := graph.NewDelta(g, false)
	first := d.AddVertices(newVerts)
	for i := 0; i < newVerts; i++ {
		d.AddEdge(first+int32(i), int32(r.Intn(n0)), 1)
	}
	for i := 0; i < deltaEdges-newVerts; i++ {
		d.AddEdge(int32(r.Intn(n0)), int32(r.Intn(n0)), float32(r.Float64())+0.01)
	}
	snap := d.Snapshot()

	snapS, snapB, _ := measureCalls(50, func() { d.Snapshot() })
	compactS, _, _ := measureCalls(3, func() { d.Compact() })

	// Hot-path overhead: pooled k-hop sampling through the overlay view
	// versus the flat CSR, bit-identical streams (view_test.go).
	alg := sampling.ClonePooled(sampling.NewKHop([]int{10, 5, 5}, sampling.FisherYates))
	sd := sampleBenchSeeds(256, n0, rng.New(23))
	const calls = 300
	runSample := func(v graph.View) float64 {
		rr := rng.New(31)
		for i := 0; i < 20; i++ {
			alg.Sample(v, sd, rr)
		}
		s, _, _ := measureCalls(calls, func() { alg.Sample(v, sd, rr) })
		return s
	}
	csrS := runSample(g)
	overlayS := runSample(snap)

	b.ReportMetric(snapS*1e6, "snapshot-us")
	b.ReportMetric(snapB, "snapshot-B")
	b.ReportMetric(compactS*1e3, "compact-ms")
	b.ReportMetric(overlayS/csrS, "overlay-slowdown")
}

func BenchmarkApplyDelta(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping graph benchmark in -short mode")
	}
	r := rng.New(53)
	mkVisits := func(size, n int) []cache.DeltaVisit {
		dvs := make([]cache.DeltaVisit, size)
		for i := range dvs {
			dvs[i] = cache.DeltaVisit{Vertex: int32(r.Intn(n)), Count: r.Float64()}
		}
		return dvs
	}
	round := func(h *cache.Hotness, dvs []cache.DeltaVisit) func() {
		return func() {
			h.Decay(0.95)
			h.ApplyDelta(dvs)
		}
	}

	// Fixed |Δ| across growing |V|: flat timings here are the O(|Δ|)
	// evidence — the per-round update cost does not track graph size
	// (residual growth is cache misses on the scatter), while the eager
	// sweep grows with |V|; ranktop is the O(|V|) introselect it feeds.
	const fixedDelta = 10_000
	var firstRound, lastRound float64
	for _, n := range []int{100_000, 400_000, 1_600_000} {
		h := cache.NewHotness(make([]float64, n))
		dvs := mkVisits(fixedDelta, n)
		fn := round(&h, dvs)
		for i := 0; i < 10; i++ {
			fn()
		}
		s, _, _ := measureCalls(200, fn)
		// The eager alternative: decay by sweeping every score — O(|V|)
		// per round, what the lazy inflation factor avoids.
		sweep, _, _ := measureCalls(50, func() {
			for v := range h.Score {
				h.Score[v] *= 0.95
			}
			h.ApplyDelta(dvs)
		})
		h.RankTop(n / 10) // warm
		rankS, _, _ := measureCalls(5, func() { h.RankTop(n / 10) })
		b.ReportMetric(s*1e9, fmt.Sprintf("round-ns/V=%d", n))
		b.ReportMetric(sweep*1e9, fmt.Sprintf("sweep-ns/V=%d", n))
		b.ReportMetric(rankS*1e3, fmt.Sprintf("ranktop-ms/V=%d", n))
		if firstRound == 0 {
			firstRound = s
		}
		lastRound = s
	}
	b.ReportMetric(lastRound/firstRound, "16x-vertices-cost-ratio")

	// Growing |Δ| at fixed |V|: cost should scale ~linearly with |Δ|.
	const fixedN = 400_000
	for _, size := range []int{1_000, 10_000, 100_000} {
		h := cache.NewHotness(make([]float64, fixedN))
		dvs := mkVisits(size, fixedN)
		fn := round(&h, dvs)
		for i := 0; i < 10; i++ {
			fn()
		}
		s, _, _ := measureCalls(100, fn)
		b.ReportMetric(s*1e9/float64(size), fmt.Sprintf("ns/visit@delta=%d", size))
	}
}

func BenchmarkPackedDecode(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping graph benchmark in -short mode")
	}
	// A full-scale PR-shaped power-law co-purchase topology, unweighted so
	// TopologyBytes compares pure topology (weights are stored raw float32
	// in both representations and would dilute the ratio toward 1).
	d, err := gen.Generate(gen.Config{
		Name: "packed-bench", Kind: gen.KindCoPurchase,
		NumVertices: 24_000, NumEdges: 1_240_000,
		FeatureDim: 1, TrainFraction: 0.01,
		Weighted: false, Seed: 0xA11CE,
	})
	if err != nil {
		b.Fatal(err)
	}
	g := d.CSR()
	n := g.NumVertices()
	edges := float64(g.NumEdges())

	packS, _, _ := measureCalls(3, func() { graph.Pack(g, 0) })
	p := graph.Pack(g, 0)
	csrBytes := float64(g.TopologyBytes())
	packedBytes := float64(p.TopologyBytes())

	// Raw decode throughput: stream every row through AdjInto into one
	// reused buffer — the sampling arenas' access pattern.
	buf := make([]int32, p.MaxDegree())
	decS, _, _ := measureCalls(10, func() {
		for v := int32(0); int(v) < n; v++ {
			buf = p.AdjInto(v, buf)
		}
	})

	// Hot-path overhead: pooled k-hop sampling decoding packed rows
	// versus aliasing flat CSR rows, bit-identical streams
	// (sampling/packed_test.go).
	alg := sampling.ClonePooled(sampling.NewKHop([]int{10, 5, 5}, sampling.FisherYates))
	sd := sampleBenchSeeds(256, n, rng.New(23))
	const calls = 300
	runSample := func(v graph.View) float64 {
		rr := rng.New(31)
		for i := 0; i < 20; i++ {
			alg.Sample(v, sd, rr)
		}
		s, _, _ := measureCalls(calls, func() { alg.Sample(v, sd, rr) })
		return s
	}
	csrS := runSample(g)
	packedS := runSample(p)

	b.ReportMetric(csrBytes/packedBytes, "compression-x")
	b.ReportMetric(packedBytes/edges, "packed-B/edge")
	b.ReportMetric(packS*1e3, "pack-ms")
	b.ReportMetric(decS*1e9/edges, "decode-ns/edge")
	b.ReportMetric(packedS/csrS, "packed-slowdown")
}
