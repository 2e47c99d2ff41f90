package sim_test

import (
	"testing"

	"gnnlab/internal/fault"
	"gnnlab/internal/sim"
)

// TestServeGolden pins sim.Serve and sim.MaxSustainableQPS bit for bit
// under a frozen synthetic cost model (a plausible 4-GPU shape: sampling
// cheaper than extract+forward per batch) and seed-keyed Poisson
// arrivals. Nothing reads a clock, so every figure is exact on any host
// and at any GOMAXPROCS; a change means admission, batch formation,
// dispatch order or fault handling changed. For each split it checks the
// highest sustainable rate, clean p50/p99 at 80% of it, and p99 plus the
// lost share under a generated trainer-crash/PCIe-degrade plan.
func TestServeGolden(t *testing.T) {
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
	golden := []struct {
		samplers                              int
		maxQPS, p50, p99, p99Fault, shedFault float64
	}{
		{1, 62918.40234375, 0.0037210433877860084, 0.004786688942663155, 0.010504861306630902, 0},
		{2, 2252.443359375, 0.0017448364334944205, 0.003876993581079513, 0.13699678538396143, 0.0945},
	}
	for _, want := range golden {
		ns := want.samplers
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
		shed := float64(faulted.ShedQueueFull+faulted.ShedDeadline+faulted.Expired) / float64(faulted.Offered)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"max_qps", maxQPS, want.maxQPS},
			{"p50_s", clean.P50, want.p50},
			{"p99_s", clean.P99, want.p99},
			{"p99_fault_s", faulted.P99, want.p99Fault},
			{"shed_fault", shed, want.shedFault},
		} {
			if c.got != c.want {
				t.Errorf("%dS/%dT %s = %v, want %v", ns, gpus-ns, c.name, c.got, c.want)
			}
		}
	}
}
