package core

import (
	"reflect"
	"strings"
	"testing"

	"gnnlab/internal/cache"
	"gnnlab/internal/device"
	"gnnlab/internal/gen"
	"gnnlab/internal/measure"
	"gnnlab/internal/sampling"
	"gnnlab/internal/workload"
)

// The tentpole invariant: Measure once + Replay under a configuration
// equals a fresh Run of that configuration, bit for bit.

func scaledCfg(cfg Config, mem int64, memScale float64) Config {
	cfg.GPUMemory = mem
	cfg.MemScale = memScale
	cfg.Epochs = 2
	return cfg
}

func mustRun(t *testing.T, d *gen.Dataset, cfg Config) *Report {
	t.Helper()
	rep, err := Run(d, cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	return rep
}

func mustReplay(t *testing.T, m *measure.Measurement, cfg Config) *Report {
	t.Helper()
	rep, err := Replay(m, cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	return rep
}

// TestMeasureOnceReplayTwoPolicies pins the ISSUE acceptance criterion:
// one Measure + Replay under two different cache policies equals two
// fresh Simulate runs.
func TestMeasureOnceReplayTwoPolicies(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)

	presc := scaledCfg(GNNLab(w, 4), mem, ms)
	degree := presc
	degree.CachePolicy = cache.PolicyDegree

	m, err := Measure(d, presc)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{presc, degree} {
		fresh := mustRun(t, d, cfg)
		replayed := mustReplay(t, m, cfg)
		if !reflect.DeepEqual(fresh, replayed) {
			t.Errorf("policy %v: Replay differs from fresh Run:\n fresh:  %v\n replay: %v",
				cfg.CachePolicy, fresh, replayed)
		}
	}
}

// One measurement replays across designs, cache ratios and GPU counts —
// everything outside the sampling content key.
func TestReplayAcrossDesignsAndSweeps(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)

	base := scaledCfg(GNNLab(w, 4), mem, ms)
	m, err := Measure(d, base)
	if err != nil {
		t.Fatal(err)
	}

	variants := []Config{base}
	tsota := scaledCfg(TSOTA(w, 4), mem, ms)
	variants = append(variants, tsota)
	agl := scaledCfg(AGL(w, 4), mem, ms)
	variants = append(variants, agl)
	ratio := base
	ratio.CacheRatioOverride = 0.05
	variants = append(variants, ratio)
	gpus := scaledCfg(GNNLab(w, 2), mem, ms)
	variants = append(variants, gpus)

	for _, cfg := range variants {
		fresh := mustRun(t, d, cfg)
		replayed := mustReplay(t, m, cfg)
		if !reflect.DeepEqual(fresh, replayed) {
			t.Errorf("%s (%v): Replay differs from fresh Run:\n fresh:  %v\n replay: %v",
				cfg.Name, cfg.Design, fresh, replayed)
		}
	}
}

// A configuration whose sampling content differs (DGL swaps in the
// reservoir sampler) must be rejected, not silently mispriced.
func TestReplayRejectsMismatchedKey(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)

	m, err := Measure(d, scaledCfg(GNNLab(w, 4), mem, ms))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(m, scaledCfg(DGL(w, 4), mem, ms)); err == nil {
		t.Error("Replay accepted a reservoir-sampler config against a Fisher-Yates measurement")
	}
	moreEpochs := scaledCfg(GNNLab(w, 4), mem, ms)
	moreEpochs.Epochs = 3
	if _, err := Replay(m, moreEpochs); err == nil {
		t.Error("Replay accepted an epoch-count mismatch")
	}
	if _, err := Replay(nil, scaledCfg(GNNLab(w, 4), mem, ms)); err == nil {
		t.Error("Replay accepted a nil measurement")
	}
}

// OOM outcomes must be identical between Run and Replay (Replay
// re-checks what Run's preflight skipped sampling for).
func TestReplayReportsOOMLikeRun(t *testing.T) {
	d, _, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)

	ok := scaledCfg(GNNLab(w, 4), device.DefaultGPUMemory/16, ms)
	m, err := Measure(d, ok)
	if err != nil {
		t.Fatal(err)
	}
	oom := ok
	oom.GPUMemory = 1 << 10 // nothing fits
	fresh := mustRun(t, d, oom)
	if !fresh.OOM {
		t.Fatal("expected OOM from tiny GPU memory")
	}
	replayed := mustReplay(t, m, oom)
	if !reflect.DeepEqual(fresh, replayed) {
		t.Errorf("OOM reports differ:\n fresh:  %v\n replay: %v", fresh, replayed)
	}
}

// TestMeasureStoreReuse pins the store acceptance criterion: runs
// sharing sampling content measure once, and Reports are bit-identical
// with and without the store.
func TestMeasureStoreReuse(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)

	configs := []Config{
		scaledCfg(GNNLab(w, 4), mem, ms),
		scaledCfg(TSOTA(w, 4), mem, ms), // same sampler: shares the measurement
		scaledCfg(AGL(w, 4), mem, ms),   // same sampler: shares the measurement
	}
	ratio := configs[0]
	ratio.CacheRatioOverride = 0.05
	configs = append(configs, ratio) // shares measurement AND ranking

	bare := make([]*Report, len(configs))
	for i, cfg := range configs {
		bare[i] = mustRun(t, d, cfg)
	}

	store := measure.NewStore()
	for i, cfg := range configs {
		cfg.MeasureStore = store
		got := mustRun(t, d, cfg)
		if !reflect.DeepEqual(bare[i], got) {
			t.Errorf("%s: Report differs with a store:\n bare:  %v\n store: %v", cfg.Name, bare[i], got)
		}
	}
	hits, misses := store.Stats()
	if hits == 0 {
		t.Error("store recorded no hits across configs sharing sampling work")
	}
	// All four configs share one measurement; rankings: PreSC (GNNLab,
	// AGL, ratio-override share) + Degree (T_SOTA) = 3 unique computations.
	if misses != 3 {
		t.Errorf("store misses = %d, want 3 (1 measurement + 2 rankings)", misses)
	}
	if wantHits := int64(len(configs)-1) + 2; hits != wantHits {
		t.Errorf("store hits = %d, want %d", hits, wantHits)
	}
}

func TestUnknownDesignErrors(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	w := scaledSpec(workload.GCN, 16)
	cfg := scaledCfg(GNNLab(w, 2), mem, ms)
	cfg.Design = DesignKind(77)
	if _, err := Run(d, cfg); err == nil || !strings.Contains(err.Error(), "unknown design") {
		t.Errorf("Run with unregistered design: err = %v, want unknown-design error", err)
	}
}

// TestRankKeyPerPolicy pins the ranking memo key of each policy: it holds
// exactly the inputs that policy reads, so rankings are shared across
// configurations that differ only in what the policy ignores.
func TestRankKeyPerPolicy(t *testing.T) {
	d, mem, ms := tinyDataset(t, gen.PresetPA, 16)
	cfg := scaledCfg(GNNLab(scaledSpec(workload.GCN, 16), 4), mem, ms).withDefaults()
	cfg.Seed, cfg.PreSCK, cfg.Epochs = 11, 2, 3
	base := measure.RankKey{Dataset: d.Name, Vertices: d.NumVertices(), Edges: d.Graph.NumEdges()}
	alg := sampling.Fingerprint(cfg.Workload.NewSampler())
	batch := cfg.Workload.BatchSize
	want := map[cache.PolicyKind]measure.RankKey{
		cache.PolicyDegree:  {Policy: "degree"},
		cache.PolicyRandom:  {Policy: "random", Seed: 11},
		cache.PolicyPreSC:   {Policy: "presc", Algorithm: alg, BatchSize: batch, K: 2, Seed: 11},
		cache.PolicyOptimal: {Policy: "optimal", Algorithm: alg, BatchSize: batch, Epochs: 3, Seed: 11},
	}
	for p, w := range want {
		cfg.CachePolicy = p
		in, err := rankSpec(cfg, d).Inputs()
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		w.Dataset, w.Vertices, w.Edges = base.Dataset, base.Vertices, base.Edges
		if got := rankKey(in, d); got != w {
			t.Errorf("%v: key %+v, want %+v", p, got, w)
		}
	}
}
