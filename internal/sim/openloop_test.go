package sim

import (
	"math"
	"reflect"
	"testing"
)

// serveCost is a small, readable cost model: a full batch of 8 costs
// 8ms sample + 12ms extract+forward, so 2 trainers sustain roughly
// 2/0.012 batches/s ≈ 1300 req/s at full occupancy.
func serveCost() BatchCost {
	return BatchCost{
		SampleFixed: 2e-3, SamplePerReq: 0.75e-3,
		ExtractFixed: 1.5e-3, ExtractPerReq: 0.5e-3,
		TrainFixed: 2.5e-3, TrainPerReq: 0.5e-3,
	}
}

func serveConfig(qps float64) ServeConfig {
	return ServeConfig{
		Samplers:  1,
		Trainers:  2,
		BatchSize: 8,
		QueueCap:  64,
		Deadline:  0.25,
		Cost:      serveCost(),
		Arrivals:  PoissonArrivals(42, qps),
		Requests:  2000,
	}
}

func TestPoissonArrivalsDeterministicAndCalibrated(t *testing.T) {
	a, b := PoissonArrivals(7, 100), PoissonArrivals(7, 100)
	var sum Seconds
	for i := 0; i < 10000; i++ {
		ga, gb := a.Next(), b.Next()
		if ga != gb {
			t.Fatalf("gap %d: %v != %v with equal seeds", i, ga, gb)
		}
		if ga < 0 {
			t.Fatalf("negative gap %v", ga)
		}
		sum += ga
	}
	mean := sum / 10000
	if mean < 0.009 || mean > 0.011 {
		t.Errorf("mean gap %v, want ~1/100", mean)
	}
}

func TestTraceArrivalsCycles(t *testing.T) {
	s := TraceArrivals([]Seconds{1, 2, 3})
	want := []Seconds{1, 2, 3, 1, 2, 3, 1}
	for i, w := range want {
		if g := s.Next(); g != w {
			t.Fatalf("gap %d = %v, want %v", i, g, w)
		}
	}
}

func TestServeDeterministic(t *testing.T) {
	a := Serve(serveConfig(400))
	b := Serve(serveConfig(400))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config, different results:\n%+v\n%+v", a, b)
	}
	if a.Served == 0 {
		t.Fatal("no requests served")
	}
}

// TestServeAccounting checks the conservation law: every offered request
// is exactly one of shed, expired, or served.
func TestServeAccounting(t *testing.T) {
	for _, qps := range []float64{50, 400, 2000, 8000} {
		r := Serve(serveConfig(qps))
		total := r.ShedQueueFull + r.ShedDeadline + r.Expired + r.Served
		if total != r.Offered {
			t.Errorf("qps %v: shed %d+%d + expired %d + served %d = %d, want offered %d",
				qps, r.ShedQueueFull, r.ShedDeadline, r.Expired, r.Served, total, r.Offered)
		}
		if r.Admitted != r.Expired+r.Served {
			t.Errorf("qps %v: admitted %d != expired %d + served %d", qps, r.Admitted, r.Expired, r.Served)
		}
		if r.P50 > r.P90 || r.P90 > r.P99 || r.P99 > r.Max {
			t.Errorf("qps %v: percentiles not monotone: %+v", qps, r)
		}
		if r.MaxQueueDepth > serveConfig(qps).QueueCap {
			t.Errorf("qps %v: queue depth %d exceeded cap", qps, r.MaxQueueDepth)
		}
	}
}

// TestServeLatencyGrowsWithLoad pins the queueing-theory sanity check:
// higher offered load cannot improve tail latency, and overload must
// shed rather than grow the queue without bound.
func TestServeLatencyGrowsWithLoad(t *testing.T) {
	light := Serve(serveConfig(100))
	heavy := Serve(serveConfig(1200))
	if heavy.P99 < light.P99 {
		t.Errorf("p99 improved under load: %v (light) -> %v (heavy)", light.P99, heavy.P99)
	}
	over := Serve(serveConfig(20000))
	if over.ShedQueueFull+over.ShedDeadline == 0 {
		t.Error("gross overload shed nothing")
	}
	// Served requests completed in bounded time: admission keeps the
	// tail within a small multiple of the deadline.
	if over.Max > 4*serveConfig(1).Deadline {
		t.Errorf("max latency %v not bounded by admission control", over.Max)
	}
}

// TestServeMicrobatchingAmortizes pins the reason the serving layer
// batches at all: under load, coalescing must raise batch occupancy
// above 1 and serve more cheaply than unbatched dispatch.
func TestServeMicrobatchingAmortizes(t *testing.T) {
	cfg := serveConfig(1000)
	batched := Serve(cfg)
	if batched.MeanBatchOccupancy < 1.5 {
		t.Errorf("mean occupancy %v under load, want > 1.5", batched.MeanBatchOccupancy)
	}
	solo := cfg
	solo.BatchSize = 1
	solo.Arrivals = PoissonArrivals(42, 1000)
	unbatched := Serve(solo)
	if batched.Served <= unbatched.Served {
		t.Errorf("batching served %d <= unbatched %d at the same offered load",
			batched.Served, unbatched.Served)
	}
}

func TestServeDeadlineExpiry(t *testing.T) {
	// One sampler, one slow trainer, tiny deadline: requests queue past
	// their deadline and must be dropped at dispatch, not served late
	// without accounting.
	cfg := serveConfig(3000)
	cfg.Trainers = 1
	cfg.Deadline = 0.02
	cfg.Arrivals = PoissonArrivals(42, 3000)
	r := Serve(cfg)
	if r.ShedDeadline == 0 {
		t.Error("projected-wait shedding never fired under overload with a tight deadline")
	}
	if r.Served+r.Expired != r.Admitted {
		t.Errorf("admitted %d != served %d + expired %d", r.Admitted, r.Served, r.Expired)
	}
}

// TestServeCrashRedispatch pins the fault path: a trainer crash aborts
// the in-flight batch, the batch re-dispatches, and every admitted
// request still completes exactly once.
func TestServeCrashRedispatch(t *testing.T) {
	cfg := serveConfig(400)
	cfg.Faults = &Faults{Crashes: []Crash{{Consumer: 0, At: 0.5, RecoverAt: 1.5}}}
	r := Serve(cfg)
	if r.Requeued == 0 {
		t.Fatal("crash at t=0.5 under steady load aborted nothing")
	}
	if r.Served+r.Expired != r.Admitted {
		t.Errorf("crash lost requests: admitted %d, served %d, expired %d", r.Admitted, r.Served, r.Expired)
	}
	clean := Serve(serveConfig(400))
	if r.P99 < clean.P99 {
		t.Errorf("p99 improved under a crash: %v -> %v", clean.P99, r.P99)
	}
}

// TestServeTakesBatchesInReadyOrder pins the global queue's FIFO rule:
// a batch formed later but sampled sooner is trained first. Four
// requests at t=0 fill batch A on Sampler 0 (ready at 4 ms); a fifth at
// 0.5 ms forms batch B alone on Sampler 1 (ready at 1.5 ms). The single
// Trainer must take B at 1.5 ms rather than idle until A is ready.
func TestServeTakesBatchesInReadyOrder(t *testing.T) {
	r := Serve(ServeConfig{
		Samplers:  2,
		Trainers:  1,
		BatchSize: 4,
		QueueCap:  64,
		Deadline:  1,
		Cost:      BatchCost{SamplePerReq: 1e-3, ExtractFixed: 1e-4, TrainFixed: 1e-4},
		Arrivals:  TraceArrivals([]Seconds{0, 0, 0, 0, 5e-4}),
		Requests:  5,
	})
	if r.Batches != 2 || r.Served != 5 {
		t.Fatalf("batches %d, served %d; want 2 batches serving 5", r.Batches, r.Served)
	}
	// A trains 4.0–4.2 ms; B trains 1.5–1.7 ms, so its one request waits
	// 1.2 ms and the mean is (4×4.2 + 1.2)/5 = 3.6 ms.
	const eps = 1e-12
	if math.Abs(r.Makespan-4.2e-3) > eps {
		t.Errorf("makespan %v, want 4.2ms", r.Makespan)
	}
	if math.Abs(r.Mean-3.6e-3) > eps {
		t.Errorf("mean latency %v, want 3.6ms (B trained before A)", r.Mean)
	}
	if math.Abs(r.P50-4.2e-3) > eps || math.Abs(r.Max-4.2e-3) > eps {
		t.Errorf("p50 %v, max %v; want both 4.2ms", r.P50, r.Max)
	}
}

func TestServePermanentCrashFallsToSurvivor(t *testing.T) {
	cfg := serveConfig(200)
	cfg.Faults = &Faults{Crashes: []Crash{{Consumer: 1, At: 0.1}}} // permanent
	r := Serve(cfg)
	if r.Served+r.Expired != r.Admitted {
		t.Fatalf("requests lost: %+v", r)
	}
	if r.TrainerBusy[1] > 0.1+cfg.Cost.extract(cfg.BatchSize)+cfg.Cost.train(cfg.BatchSize) {
		t.Errorf("dead trainer accumulated busy time %v after permanent crash", r.TrainerBusy[1])
	}
}

func TestServeExtractDegradeStretchesLatency(t *testing.T) {
	clean := Serve(serveConfig(600))
	cfg := serveConfig(600)
	cfg.Faults = &Faults{ExtractDegrade: []Window{{Start: 0, End: math.Inf(1), Factor: 3}}}
	degraded := Serve(cfg)
	if degraded.P99 <= clean.P99 {
		t.Errorf("PCIe degrade did not raise p99: %v -> %v", clean.P99, degraded.P99)
	}
}

func TestServeQueueStallDelaysFormation(t *testing.T) {
	cfg := serveConfig(400)
	cfg.Faults = &Faults{QueueStalls: []Window{{Start: 0.2, End: 0.6}}}
	r := Serve(cfg)
	clean := Serve(serveConfig(400))
	if r.P99 <= clean.P99 {
		t.Errorf("queue stall did not raise p99: %v -> %v", clean.P99, r.P99)
	}
	if r.Served+r.Expired != r.Admitted {
		t.Errorf("stall lost requests: %+v", r)
	}
}

func TestMaxSustainableQPS(t *testing.T) {
	cfg := serveConfig(1) // arrival stream replaced per trial
	qps, at := MaxSustainableQPS(cfg, 99, SustainOptions{Requests: 1000})
	if qps <= 0 {
		t.Fatal("no sustainable rate found for a feasible config")
	}
	if at.P99 > cfg.Deadline {
		t.Errorf("result at sustainable rate misses deadline: p99 %v > %v", at.P99, cfg.Deadline)
	}
	qps2, _ := MaxSustainableQPS(cfg, 99, SustainOptions{Requests: 1000})
	if qps != qps2 {
		t.Errorf("search not deterministic: %v != %v", qps, qps2)
	}

	// More trainers must not lower the sustainable rate.
	big := cfg
	big.Trainers = 4
	qpsBig, _ := MaxSustainableQPS(big, 99, SustainOptions{Requests: 1000})
	if qpsBig < qps {
		t.Errorf("4 trainers sustain %v QPS < 2 trainers' %v", qpsBig, qps)
	}
}

func TestServePanics(t *testing.T) {
	cases := []func(){
		func() { Serve(ServeConfig{}) },
		func() { PoissonArrivals(1, 0) },
		func() { TraceArrivals(nil) },
		func() { TraceArrivals([]Seconds{-1}) },
		func() {
			cfg := serveConfig(10)
			cfg.Trainers = 0
			Serve(cfg)
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}
