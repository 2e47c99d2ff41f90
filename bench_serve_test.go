package gnnlab

// BenchmarkServe measures the online inference serving layer from both
// ends. The simulated end pushes seed-keyed Poisson arrivals through
// sim.Serve with a FIXED synthetic cost model — no wall clock anywhere —
// so max sustainable QPS and the p50/p99 latencies (clean and under the
// fault plan's trainer crashes + PCIe degrade) are bit-identical on any
// machine and benchdiff gates them exactly. The live end drives a real
// serve.Server (admission, microbatching, request-driven cache) and
// reports wall-clock cost plus the steady-state allocation count of one
// Submit×B→Step cycle. The pooled buffers themselves are zero-alloc
// (pinned at 0 by internal/serve's TestServeSteadyStateZeroAlloc, which
// stays below tensor's parallel threshold); at this benchmark's batch
// size the two layer MatMuls cross that threshold, so on one core the
// steady state is 0 allocs/cycle and on more it is parallelRows'
// goroutine bookkeeping — a WaitGroup and one closure per extra core,
// per large MatMul, nothing per-request. Results land in
// BENCH_serve.json.

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"gnnlab/internal/fault"
	"gnnlab/internal/gen"
	"gnnlab/internal/serve"
	"gnnlab/internal/sim"
	"gnnlab/internal/workload"
)

type serveSimRow struct {
	Split     string  `json:"split"`
	MaxQPS    float64 `json:"max_qps"`
	P50S      float64 `json:"p50_s"`
	P99S      float64 `json:"p99_s"`
	P99FaultS float64 `json:"p99_fault_s"`
	ShedFault float64 `json:"shed_fault"`
}

func BenchmarkServe(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping serve benchmark in -short mode")
	}

	// --- Simulated open-loop serving: deterministic, machine-independent.
	// The synthetic cost model is a plausible 4-GPU shape (sampling
	// cheaper than extract+forward per batch) chosen once and frozen;
	// everything downstream is exact.
	cost := sim.BatchCost{
		SampleFixed: 400e-6, SamplePerReq: 12e-6,
		ExtractFixed: 300e-6, ExtractPerReq: 18e-6,
		TrainFixed: 600e-6, TrainPerReq: 10e-6,
	}
	const (
		gpus     = 4
		batch    = 64
		requests = 2000
		seed     = uint64(0x5E12E)
	)
	splits := []int{1, 2} // samplers: 1S/3T and 2S/2T
	simRows := make([]serveSimRow, 0, len(splits))
	for _, ns := range splits {
		cfg := sim.ServeConfig{
			Samplers:  ns,
			Trainers:  gpus - ns,
			BatchSize: batch,
			QueueCap:  8 * batch,
			Deadline:  0.010,
			Cost:      cost,
			Requests:  requests,
		}
		maxQPS, _ := sim.MaxSustainableQPS(cfg, seed, sim.SustainOptions{Requests: requests})
		if maxQPS <= 0 {
			b.Fatalf("split %dS/%dT sustains no load", ns, gpus-ns)
		}
		run := func(f *sim.Faults) sim.ServeResult {
			c := cfg
			c.Arrivals = sim.PoissonArrivals(seed, maxQPS*0.80)
			c.Faults = f
			return sim.Serve(c)
		}
		clean := run(nil)
		plan := fault.Generate(seed^0xFA17, gpus, fault.GenOptions{
			Epochs:    1,
			EpochTime: float64(requests) / (maxQPS * 0.80),
			Trainers:  gpus - ns,
		})
		faulted := run(plan.SimFaults(0))
		simRows = append(simRows, serveSimRow{
			Split:     splitLabel(ns, gpus-ns),
			MaxQPS:    maxQPS,
			P50S:      clean.P50,
			P99S:      clean.P99,
			P99FaultS: faulted.P99,
			ShedFault: float64(faulted.ShedQueueFull+faulted.ShedDeadline+faulted.Expired) / float64(faulted.Offered),
		})
	}

	// --- Live microbatched server: wall-clock cost of one steady-state
	// Submit×B→Step→Release cycle over the pooled zero-alloc path.
	gcfg, err := gen.PresetConfig(gen.PresetConv)
	if err != nil {
		b.Fatal(err)
	}
	gcfg.MaterializeFeatures = true
	d, err := gen.Load(gcfg)
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
	// A rotating pool of request windows, mirroring bench_train's rotating
	// seed batches: successive microbatches vary in shape but revisit the
	// same vertex sets, so pooled buffers reach their high-water mark
	// during warmup and the measured window allocates nothing.
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

	for _, r := range simRows {
		b.ReportMetric(r.MaxQPS, r.Split+"-max-qps")
	}
	b.ReportMetric(liveO, "live-allocs/cycle")

	out, err := json.MarshalIndent(map[string]any{
		"benchmark":       "BenchmarkServe",
		"gpus":            gpus,
		"batch_size":      batch,
		"requests":        requests,
		"deadline_s":      0.010,
		"splits":          simRows,
		"live_dataset":    d.Name,
		"live_model":      spec.Kind.String(),
		"live_batch":      spec.BatchSize,
		"live_calls":      calls,
		"live_ns_op":      liveS * 1e9,
		"live_bytes_op":   liveB,
		"live_allocs_op":  liveO,
		"live_cache_rate": srv.CacheHitRate(),
		"cores":           runtime.GOMAXPROCS(0),
	}, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_serve.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

func splitLabel(ns, nt int) string {
	return string(rune('0'+ns)) + "S/" + string(rune('0'+nt)) + "T"
}
