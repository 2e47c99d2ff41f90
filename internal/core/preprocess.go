package core

import (
	"gnnlab/internal/gen"
)

// PreprocessCost is the Table 6 breakdown: the one-off costs paid before
// epochs can run, amortized over a training job of hundreds of epochs.
type PreprocessCost struct {
	Dataset string
	// DiskToDRAM loads graph topology and feature data from disk (P1).
	DiskToDRAM float64
	// LoadTopology and LoadCache are the DRAM→GPU-memory transfers (P2).
	LoadTopology float64
	LoadCache    float64
	// PreSample is the PreSC#K pre-sampling plus hotness-map
	// construction (P3).
	PreSample float64
}

// DRAMToGPU returns the combined P2 cost.
func (p PreprocessCost) DRAMToGPU() float64 { return p.LoadTopology + p.LoadCache }

// Preprocess estimates the preprocessing cost of running cfg on d,
// performing the real pre-sampling to cost P3. A configuration that Run
// would report as OOM has no preprocessing to cost: its error wraps
// device.ErrOutOfMemory.
func Preprocess(ds *gen.Dataset, cfg Config) (PreprocessCost, error) {
	cfg = cfg.withDefaults()
	dim := ds.FeatureDim
	if cfg.FeatureDimOverride > 0 {
		dim = cfg.FeatureDimOverride
	}
	vfb := int64(dim) * 4

	plan := planMemory(cfg, ds, vfb)
	if err := oomError(cfg, plan); err != nil {
		return PreprocessCost{}, err
	}
	p := PreprocessCost{
		Dataset:      ds.Name,
		DiskToDRAM:   cfg.Cost.DiskLoadTime(ds.TopologyBytes() + int64(ds.NumVertices())*vfb),
		LoadTopology: cfg.Cost.PCIeLoadTime(plan.topoBytes),
		LoadCache:    cfg.Cost.PCIeLoadTime(plan.cacheBytes),
	}
	if cfg.CacheEnabled {
		_, pre, err := buildRanking(cfg, ds)
		if err != nil {
			return PreprocessCost{}, err
		}
		p.PreSample = pre
	}
	return p, nil
}
