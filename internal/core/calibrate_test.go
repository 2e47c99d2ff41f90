package core

import (
	"os"
	"testing"

	"gnnlab/internal/cache"
	"gnnlab/internal/gen"
	"gnnlab/internal/workload"
)

// TestCalibration prints full-preset measurements used to tune the
// generators and cost model against the paper's anchors. It is gated by
// GNNLAB_CALIBRATE=1 because the full presets take a while to generate.
func TestCalibration(t *testing.T) {
	if os.Getenv("GNNLAB_CALIBRATE") == "" {
		t.Skip("set GNNLAB_CALIBRATE=1 to run")
	}
	for _, name := range []string{gen.PresetPA, gen.PresetTW} {
		d := loadScaled(t, name, 1)
		w := workload.NewSpec(workload.GCN)
		alg := w.NewSampler()
		fp := cache.CollectFootprint(d.Graph, alg, d.TrainSet, w.BatchSize, 2, 1)
		batches := 2 * ((len(d.TrainSet) + w.BatchSize - 1) / w.BatchSize)
		t.Logf("%s: V=%d E=%d TS=%d batches/ep=%d draws/batch=%d unique/batch=%d",
			name, d.NumVertices(), d.Graph.NumEdges(), len(d.TrainSet), batches/2,
			fp.SampledEdges/int64(batches), fp.TotalExtractions/int64(batches))
		opt := fp.OptimalHotness().Rank()
		deg := cache.DegreeHotness(d.Graph).Rank()
		pre := cache.PreSC(d.Graph, alg, d.TrainSet, w.BatchSize, 1, 99).Hotness.Rank()
		pre2 := cache.PreSC(d.Graph, alg, d.TrainSet, w.BatchSize, 2, 99).Hotness.Rank()
		uniq := cache.CollectFootprint(d.Graph, alg, d.TrainSet, w.BatchSize, 1, 99).OptimalHotness().Rank()
		n := d.NumVertices()
		for _, ratio := range []float64{0.05, 0.10, 0.20} {
			k := int(ratio * float64(n))
			t.Logf("  ratio %.0f%%: optimal H=%.3f presc H=%.3f presc2 H=%.3f uniq H=%.3f degree H=%.3f",
				100*ratio, fp.HitRate(opt, k), fp.HitRate(pre, k), fp.HitRate(pre2, k), fp.HitRate(uniq, k), fp.HitRate(deg, k))
		}
		// FLOPs for train-rate calibration.
		rep, err := Run(d, GNNLab(w, 8))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("  %s", rep)
	}
}
