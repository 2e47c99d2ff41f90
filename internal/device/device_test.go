package device

import (
	"errors"
	"testing"

	"gnnlab/internal/sampling"
)

func TestGPUAllocFree(t *testing.T) {
	g := NewGPU(0, 1000)
	if err := g.Alloc("topo", 600); err != nil {
		t.Fatal(err)
	}
	if g.Available() != 400 {
		t.Errorf("available %d, want 400", g.Available())
	}
	if err := g.Alloc("cache", 500); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("over-allocation error = %v, want ErrOutOfMemory", err)
	}
	if err := g.Alloc("cache", 400); err != nil {
		t.Fatal(err)
	}
	if g.Available() != 0 {
		t.Errorf("available %d after filling the GPU, want 0", g.Available())
	}
}

func TestGPUAllocGrowsLabel(t *testing.T) {
	g := NewGPU(1, 100)
	_ = g.Alloc("ws", 30)
	_ = g.Alloc("ws", 30)
	ledger := g.Ledger()
	if len(ledger) != 1 || ledger[0].Bytes != 60 {
		t.Errorf("ledger = %v", ledger)
	}
}

func TestGPUNegativeAlloc(t *testing.T) {
	g := NewGPU(0, 100)
	if err := g.Alloc("x", -1); err == nil {
		t.Error("negative allocation accepted")
	}
}

func TestLedgerSorted(t *testing.T) {
	g := NewGPU(0, 1000)
	_ = g.Alloc("zebra", 1)
	_ = g.Alloc("alpha", 2)
	ledger := g.Ledger()
	if ledger[0].Label != "alpha" || ledger[1].Label != "zebra" {
		t.Errorf("ledger order %v", ledger)
	}
}

func TestSampleTimeProfiles(t *testing.T) {
	m := DefaultCostModel()
	// On the skewed evaluation graphs the reservoir sampler scans one to
	// two orders of magnitude more adjacency entries than it draws.
	s := &sampling.Sample{SampledEdges: 100000, ScannedEdges: 4000000}
	gpu := m.SampleTime(s, SamplerGPUFisherYates, 3)
	res := m.SampleTime(s, SamplerGPUReservoir, 3)
	cpu := m.SampleTime(s, SamplerCPU, 3)
	py := m.SampleTime(s, SamplerCPUPython, 3)
	if !(gpu < res) {
		t.Errorf("fisher-yates %v should beat reservoir %v", gpu, res)
	}
	if !(res < cpu) {
		t.Errorf("gpu reservoir %v should beat cpu %v", res, cpu)
	}
	if !(cpu < py) {
		t.Errorf("native cpu %v should beat python cpu %v", cpu, py)
	}
}

func TestWalkCostsExtra(t *testing.T) {
	m := DefaultCostModel()
	plain := &sampling.Sample{SampledEdges: 1000}
	walky := &sampling.Sample{SampledEdges: 1000, Walks: 50000}
	if a, b := m.SampleTime(plain, SamplerGPUFisherYates, 3), m.SampleTime(walky, SamplerGPUFisherYates, 3); b <= a {
		t.Errorf("walks did not add cost: %v <= %v", b, a)
	}
	// Reservoir pays a bigger per-hop overhead for walk workloads.
	if a, b := m.SampleTime(plain, SamplerGPUReservoir, 3), m.SampleTime(walky, SamplerGPUReservoir, 3); b <= a {
		t.Errorf("reservoir walk overhead missing: %v <= %v", b, a)
	}
}

func TestExtractTimeContention(t *testing.T) {
	m := DefaultCostModel()
	const bytes = 10 << 20
	one := m.ExtractTime(0, bytes, 1)
	two := m.ExtractTime(0, bytes, 2)
	eight := m.ExtractTime(0, bytes, 8)
	// Up to Total/PerExtractor extractors there is no slowdown…
	if two > one*1.01 {
		t.Errorf("2 extractors slower than 1: %v vs %v", two, one)
	}
	// …beyond it, host bandwidth divides.
	if eight <= one*1.5 {
		t.Errorf("8 extractors should contend: %v vs %v", eight, one)
	}
	// Hits are far cheaper than misses.
	if hit, miss := m.ExtractTime(bytes, 0, 1), m.ExtractTime(0, bytes, 1); hit*10 > miss {
		t.Errorf("hit gather %v not far cheaper than miss %v", hit, miss)
	}
}

func TestExtractMonotoneInBytes(t *testing.T) {
	m := DefaultCostModel()
	prev := -1.0
	for b := int64(0); b <= 1<<20; b += 1 << 18 {
		cur := m.ExtractTime(0, b, 4)
		if cur < prev {
			t.Fatalf("extract time decreased at %d bytes", b)
		}
		prev = cur
	}
}

func TestSamplerKindOnGPU(t *testing.T) {
	if !SamplerGPUFisherYates.OnGPU() || !SamplerGPUReservoir.OnGPU() {
		t.Error("GPU sampler kinds must report OnGPU")
	}
	if SamplerCPU.OnGPU() || SamplerCPUPython.OnGPU() {
		t.Error("CPU sampler kinds must not report OnGPU")
	}
}

func TestLoadTimes(t *testing.T) {
	m := DefaultCostModel()
	if got := m.PCIeLoadTime(160e6); got < 0.99 || got > 1.01 {
		t.Errorf("PCIe load of one second's worth = %v", got)
	}
	if got := m.DiskLoadTime(12e6); got < 0.99 || got > 1.01 {
		t.Errorf("disk load of one second's worth = %v", got)
	}
	if m.TrainTime(0) != m.TrainBatchOverhead {
		t.Error("zero-FLOP train time should equal the per-batch overhead")
	}
	if m.MarkTime(5_000_000) < 0.99 {
		t.Error("mark rate calibration broken")
	}
	if m.QueueCopyTime(320e6) < 0.99 {
		t.Error("queue copy calibration broken")
	}
}

func TestInjectAllocFault(t *testing.T) {
	g := NewGPU(0, 1000)
	g.InjectAllocFault(func(label string, bytes int64) bool { return label == "cache" })

	if err := g.Alloc("topology", 100); err != nil {
		t.Fatalf("unfaulted label failed: %v", err)
	}
	err := g.Alloc("cache", 100)
	if err == nil {
		t.Fatal("faulted label succeeded")
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("want ErrInjected, got %v", err)
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("injected fault must look like OOM to errors.Is, got %v", err)
	}
	if got := g.Available(); got != 900 {
		t.Errorf("vetoed allocation changed the ledger: available %d, want 900", got)
	}

	g.InjectAllocFault(nil)
	if err := g.Alloc("cache", 100); err != nil {
		t.Fatalf("alloc after removing the fault hook failed: %v", err)
	}
}
