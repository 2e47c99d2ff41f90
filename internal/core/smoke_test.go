package core

import (
	"testing"

	"gnnlab/internal/gen"
	"gnnlab/internal/workload"
)

// TestSmokeAllSystems runs every system design on a scaled-down PA with a
// proportionally scaled GPU and checks the qualitative ordering the paper
// reports: GNNLab < T_SOTA < DGL < PyG on end-to-end epoch time.
func TestSmokeAllSystems(t *testing.T) {
	const scale = 8
	d := loadScaled(t, gen.PresetPA, scale)
	w := workload.NewSpec(workload.GCN)
	w.BatchSize = workload.DefaultBatchSize / scale * 8 // keep ~150/8 batches

	mem := int64(float64(160<<20) / scale)
	mk := func(cfg Config) *Report {
		cfg.GPUMemory = mem
		cfg.MemScale = scale
		cfg.Epochs = 2
		rep, err := Run(d, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		t.Logf("%s", rep)
		return rep
	}
	gl := mk(GNNLab(w, 8))
	ts := mk(TSOTA(w, 8))
	dg := mk(DGL(w, 8))
	pg := mk(PyG(w, 8))

	for _, rep := range []*Report{gl, ts, dg, pg} {
		if rep.OOM {
			t.Fatalf("%s unexpectedly OOM: %s", rep.System, rep.OOMReason)
		}
	}
	if !(gl.EpochTime < ts.EpochTime && ts.EpochTime < dg.EpochTime && dg.EpochTime < pg.EpochTime) {
		t.Errorf("epoch-time ordering violated: GNNLab %.3f, T_SOTA %.3f, DGL %.3f, PyG %.3f",
			gl.EpochTime, ts.EpochTime, dg.EpochTime, pg.EpochTime)
	}
	if gl.HitRate <= ts.HitRate {
		t.Errorf("GNNLab hit rate %.2f should exceed T_SOTA %.2f", gl.HitRate, ts.HitRate)
	}
}
