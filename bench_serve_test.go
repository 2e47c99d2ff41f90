package gnnlab

// BenchmarkServe measures the live serving layer: the wall-clock cost and
// steady-state allocation count of one Submit×B→Step→Release cycle of a
// real serve.Server (admission, microbatching, request-driven cache). The
// pooled buffers themselves are zero-alloc (pinned at 0 by internal/serve's
// TestServeSteadyStateZeroAlloc); at this benchmark's batch size the
// gather, the aggregations and the layer MatMuls cross tensor's parallel
// threshold and run on the par row pool, which posts kept descriptors, so
// the steady state is 0 allocs/cycle on any number of cores. The
// simulated open-loop side is pinned exactly by internal/sim's
// TestServeGolden.

import (
	"testing"

	"gnnlab/internal/gen"
	"gnnlab/internal/serve"
	"gnnlab/internal/workload"
)

func BenchmarkServe(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping serve benchmark in -short mode")
	}
	gcfg, err := gen.PresetConfig(gen.PresetConv)
	if err != nil {
		b.Fatal(err)
	}
	gcfg.MaterializeFeatures = true
	d, err := gen.Generate(gcfg)
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.Spec{Kind: workload.GraphSAGE, HiddenDim: 32, BatchSize: 64}
	srv, err := serve.New(d, serve.Options{
		Spec:       spec,
		CacheRatio: 0.10,
		// Far past the benchmark horizon: rerank cost is measured by the
		// experiment table, not by the steady-state cycle.
		RerankEvery: 1 << 30,
		Seed:        7,
	})
	if err != nil {
		b.Fatal(err)
	}
	// A rotating pool of request windows, mirroring BenchmarkMinibatch's
	// rotating seed batches: successive microbatches vary in shape but
	// revisit the same vertex sets, so pooled buffers reach their
	// high-water mark during warmup and the measured window allocates
	// nothing.
	const windows = 16
	n := int32(d.NumVertices())
	stride := n / (windows * int32(spec.BatchSize))
	tickets := make([]*serve.Ticket, 0, spec.BatchSize)
	wi := 0
	cycle := func() {
		tickets = tickets[:0]
		base := int32(wi%windows) * int32(spec.BatchSize) * stride
		wi++
		for i := 0; i < spec.BatchSize; i++ {
			tk, out := srv.Submit((base + int32(i)*stride) % n)
			if out != serve.Admitted {
				b.Fatalf("submit: %v", out)
			}
			tickets = append(tickets, tk)
		}
		if _, _, err := srv.Step(); err != nil {
			b.Fatal(err)
		}
		for _, tk := range tickets {
			if !tk.Done {
				b.Fatal("ticket not served after Step")
			}
			srv.Release(tk)
		}
	}
	for w := 0; w < 8*windows; w++ {
		cycle()
	}
	const calls = 100
	liveS, liveB, liveO := measureCalls(calls, cycle)

	b.ReportMetric(liveS*1e9, "live-ns/cycle")
	b.ReportMetric(liveB, "live-B/cycle")
	b.ReportMetric(liveO, "live-allocs/cycle")
	b.ReportMetric(srv.CacheHitRate(), "cache-hit-rate")
}
