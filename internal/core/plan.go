package core

import (
	"fmt"

	"gnnlab/internal/cache"
	"gnnlab/internal/device"
	"gnnlab/internal/gen"
)

// memPlan is the outcome of GPU memory planning (§3's capacity analysis,
// §6.1's cache-budget rule): how many feature rows each trainer-side cache
// holds, and — for GNNLab with switching — how many a standby trainer's
// smaller cache holds. A failed plan carries the OOM error.
type memPlan struct {
	// cacheSlots is the trainer cache capacity in vertices.
	cacheSlots int
	// standbySlots is the standby-trainer cache capacity (its GPU also
	// holds the graph topology); -1 when a standby trainer cannot even
	// fit its training workspace, disabling switching on that GPU.
	standbySlots int
	// topoBytes is what a sampler loads.
	topoBytes int64
	// cacheBytes is the trainer cache size in bytes.
	cacheBytes int64
	// samplerPartitions is 1 when the topology fits a Sampler GPU, or
	// the number of partitions cycled through GPU memory when
	// PartitionedSampling rescues an otherwise-OOM sampler.
	samplerPartitions int
	err               error
}

// topologyBytes returns the topology volume the workload's sampler needs
// resident. Edge weights derive from a per-vertex attribute (registration
// year, §7.1), so weighted sampling only adds one float per vertex — the
// sampler computes a row's weight prefix on the fly, which the draw-rate
// calibration already covers.
func topologyBytes(cfg Config, d *gen.Dataset) int64 {
	b := d.Graph.TopologyBytesUnweighted()
	if cfg.Workload.Weighted {
		b += int64(d.NumVertices()) * 4
	}
	return b
}

// planContext carries the run-wide inputs of memory planning into a
// Design's PlanMemory method: the scaled footprints and the ledger-backed
// fit helper.
type planContext struct {
	cfg      Config
	capBytes int64
	topo     int64
	sampleWS int64
	trainWS  int64
	reserve  int64
	vfb      int64
	n        int
}

// base returns the empty plan every design starts from.
func (pc planContext) base() memPlan {
	return memPlan{topoBytes: pc.topo, standbySlots: -1, samplerPartitions: 1}
}

// part is one labelled allocation of a fit. Parts allocate in slice
// order, so an OOM error deterministically names the first part that
// does not fit (a map here would make Run's and Replay's OOM reasons
// diverge at random).
type part struct {
	label string
	bytes int64
}

// fit allocates the labelled parts, in order, on a fresh device ledger
// and returns the bytes left over, or the OOM error. All accounting goes
// through the real device ledger, so OOM outcomes come from the same
// allocation machinery the Figure 3 breakdown uses — including any
// injected allocation faults from the run's fault plan, which surface
// here as deterministic OOM reports.
func (pc planContext) fit(role string, parts ...part) (int64, error) {
	gpu := device.NewGPU(0, pc.capBytes)
	gpu.InjectAllocFault(pc.cfg.Faults.AllocFault())
	for _, p := range parts {
		if err := gpu.Alloc(p.label, p.bytes); err != nil {
			return 0, fmt.Errorf("system: %s: %s: %w", pc.cfg.Name, role, err)
		}
	}
	return gpu.Available(), nil
}

// slots converts a free-byte budget into cache slots, honoring the
// cache-ratio override.
func (pc planContext) slots(freeBytes int64) int {
	return slotsForPlan(pc.cfg, freeBytes, pc.vfb, pc.n)
}

// planMemory performs the design-specific GPU memory accounting and
// returns the resulting cache budget, or an OOM error mirroring the
// paper's OOM cells. The design-specific arms live in each Design's
// PlanMemory method; this wrapper computes the shared scaled footprints
// and applies the cache-enabled gate.
func planMemory(cfg Config, d *gen.Dataset) memPlan {
	topo := topologyBytes(cfg, d)
	sampleWS := int64(float64(cfg.Workload.SampleWorkspaceBytes()) * cfg.SampleWSMultiplier / cfg.MemScale)
	if !cfg.Sampler.OnGPU() {
		// CPU sampling keeps the topology in host memory; nothing to
		// load on the GPU and no GPU-side sampling workspace.
		topo = 0
		sampleWS = 0
	}
	pc := planContext{
		cfg:      cfg,
		capBytes: cfg.GPUMemory,
		topo:     topo,
		sampleWS: sampleWS,
		trainWS:  int64(float64(cfg.Workload.TrainWorkspaceBytes()) / cfg.MemScale),
		reserve:  int64(float64(cfg.Cost.RuntimeReserveBytes) / cfg.MemScale),
		vfb:      d.VertexFeatureBytes(),
		n:        d.NumVertices(),
	}

	design, err := designFor(cfg.Design)
	if err != nil {
		plan := pc.base()
		plan.err = err
		return plan
	}
	plan := design.PlanMemory(pc)
	if plan.err != nil {
		return plan
	}

	if !cfg.CacheEnabled {
		plan.cacheSlots = 0
		if plan.standbySlots > 0 {
			plan.standbySlots = 0
		}
	}
	plan.cacheBytes = int64(plan.cacheSlots) * pc.vfb
	return plan
}

// slotsForPlan applies the cache-ratio override or derives slots from the
// byte budget.
func slotsForPlan(cfg Config, freeBytes, vertexFeatureBytes int64, n int) int {
	if cfg.CacheRatioOverride > 0 {
		slots := int(cfg.CacheRatioOverride * float64(n))
		if slots > n {
			slots = n
		}
		return slots
	}
	return cache.SlotsFor(freeBytes, vertexFeatureBytes, n)
}

// LedgerFor reports the Figure 3 memory breakdown: the labelled GPU
// allocations of each role under the configured design.
func LedgerFor(cfg Config, d *gen.Dataset) (sampler, trainer []device.Allocation, err error) {
	cfg = cfg.withDefaults()
	plan := planMemory(cfg, d)
	if plan.err != nil {
		return nil, nil, plan.err
	}
	sampleWS := int64(float64(cfg.Workload.SampleWorkspaceBytes()) * cfg.SampleWSMultiplier / cfg.MemScale)
	reserveB := int64(float64(cfg.Cost.RuntimeReserveBytes) / cfg.MemScale)
	trainWSB := int64(float64(cfg.Workload.TrainWorkspaceBytes()) / cfg.MemScale)
	mkGPU := func(parts ...part) ([]device.Allocation, error) {
		g := device.NewGPU(0, cfg.GPUMemory)
		for _, p := range parts {
			if err := g.Alloc(p.label, p.bytes); err != nil {
				return nil, err
			}
		}
		return g.Ledger(), nil
	}
	switch cfg.Design {
	case DesignGNNLab:
		sampler, err = mkGPU(
			part{"reserve", reserveB}, part{"topology", plan.topoBytes}, part{"sample-ws", sampleWS},
		)
		if err != nil {
			return nil, nil, err
		}
		trainer, err = mkGPU(
			part{"reserve", reserveB}, part{"train-ws", trainWSB}, part{"feature-cache", plan.cacheBytes},
		)
		return sampler, trainer, err
	case DesignCPUSampling:
		shared, err := mkGPU(
			part{"reserve", reserveB}, part{"train-ws", trainWSB},
		)
		return shared, shared, err
	default:
		shared, err := mkGPU(
			part{"reserve", reserveB}, part{"topology", plan.topoBytes},
			part{"sample-ws", sampleWS}, part{"train-ws", trainWSB},
			part{"feature-cache", plan.cacheBytes},
		)
		return shared, shared, err
	}
}
