package core

import (
	"errors"
	"fmt"
	"strings"

	"gnnlab/internal/cache"
	"gnnlab/internal/device"
	"gnnlab/internal/gen"
	"gnnlab/internal/measure"
	"gnnlab/internal/obs"
	"gnnlab/internal/obs/account"
	"gnnlab/internal/par"
	"gnnlab/internal/sampling"
	"gnnlab/internal/sched"
	"gnnlab/internal/sim"
)

// Report is the measured outcome of running a system on a dataset: the
// quantities the paper's tables and figures are built from. Stage times
// are per-epoch totals summed over all executors (the convention of
// Tables 1 and 5); EpochTime is the end-to-end makespan.
type Report struct {
	System   string
	Workload string
	Dataset  string

	OOM       bool
	OOMReason string

	NumGPUs int
	Alloc   sched.Allocation
	Batches int
	Epochs  int

	// Per-epoch stage totals (seconds).
	SampleG     float64 // graph sampling proper ("G")
	SampleM     float64 // marking cached vertices ("M")
	SampleC     float64 // copying samples to the host queue ("C")
	SampleTotal float64 // G + M + C
	ExtractTot  float64
	TrainTot    float64
	// EpochTime is the simulated end-to-end time of one epoch.
	EpochTime float64

	// TsAvg and TtAvg are the per-mini-batch Sampler and Trainer times
	// the flexible scheduler used.
	TsAvg, TtAvg float64

	CacheRatio       float64
	HitRate          float64
	TransferredBytes int64 // per-epoch host→GPU feature traffic
	TasksByStandby   int
	// SamplerPartitions is 1 normally; >1 when partitioned sampling
	// cycles an oversized topology through Sampler GPU memory.
	SamplerPartitions int

	// PreSampleTime is the one-off pre-sampling cost when PreSC is the
	// policy (Table 6, P3).
	PreSampleTime float64

	// Timeline is the first measured epoch's per-task execution trace
	// (only when Config.Trace is set).
	Timeline []sim.TaskTiming

	// Account is the exact time accounting of the traced epoch: the
	// per-lane busy/idle/wait decomposition, the critical path through
	// the task dependency graph, and the what-if capacity estimates.
	// Set whenever Timeline is (it is a pure function of the trace), so
	// attaching or detaching observability never changes the Report.
	// Bottleneck is the account's one-line verdict.
	Account    *account.Account
	Bottleneck *account.Summary

	// RequeuedTasks counts tasks that re-entered the global queue after
	// an injected consumer crash, summed over measured epochs.
	RequeuedTasks int
	// Reallocations counts the times the flexible scheduler re-ran the
	// §5.3 split over the surviving GPUs after a permanent crash.
	Reallocations int
	// FaultEvents lists every injected crash that aborted an in-flight
	// task, in occurrence order across epochs; nil when no fault fired.
	FaultEvents []sim.FaultEvent
}

// String renders a compact one-line summary.
func (r *Report) String() string {
	if r.OOM {
		return fmt.Sprintf("%s/%s/%s: OOM (%s)", r.System, r.Workload, r.Dataset, r.OOMReason)
	}
	return fmt.Sprintf("%s/%s/%s (%s): epoch %.3fs  S %.3f (G %.3f M %.3f C %.3f)  E %.3f (R %.0f%%, H %.0f%%)  T %.3f",
		r.System, r.Workload, r.Dataset, r.Alloc, r.EpochTime,
		r.SampleTotal, r.SampleG, r.SampleM, r.SampleC,
		r.ExtractTot, 100*r.CacheRatio, 100*r.HitRate, r.TrainTot)
}

// batchWork is the real measured work of one mini-batch, priced against
// one configuration's cache tables and feature dimension (so the
// flexible scheduler can re-cost the same work under any allocation).
type batchWork struct {
	sampledEdges int64
	scannedEdges int64
	walks        int64
	numInput     int
	sampleBytes  int64
	hits, misses int
	standbyHits  int
	standbyMiss  int
	flops        float64
}

// runner carries the run-wide constants the duration helpers need.
type runner struct {
	cfg Config
	dim int   // feature dimension in effect
	vfb int64 // per-vertex feature bytes in effect
}

func newRunner(d *gen.Dataset, cfg Config) runner {
	dim := d.FeatureDim
	if cfg.FeatureDimOverride > 0 {
		dim = cfg.FeatureDimOverride
	}
	return runner{cfg: cfg, dim: dim, vfb: int64(dim) * 4}
}

func (rn runner) newReport(d *gen.Dataset) *Report {
	return &Report{
		System:   rn.cfg.Name,
		Workload: rn.cfg.Workload.Name(),
		Dataset:  d.Name,
		NumGPUs:  rn.cfg.NumGPUs,
		Epochs:   rn.cfg.Epochs,
		Batches:  sampling.NumBatches(len(d.TrainSet), rn.cfg.Workload.BatchSize),
	}
}

// Run executes cfg against dataset d and returns the measured report:
// Measure (sample the real graph), Cost (price the work under cfg's
// design and cache), Simulate (run the event engine). OOM is reported
// in the Report (not as an error), mirroring the paper's OOM table
// cells; errors indicate invalid configurations.
//
// Run is exactly Measure followed by Replay; callers that probe many
// configurations over the same sampling work should use those (with a
// Config.MeasureStore) to measure once.
func Run(d *gen.Dataset, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	design, err := designFor(cfg.Design)
	if err != nil {
		return nil, err
	}
	rn := newRunner(d, cfg)
	rep := rn.newReport(d)
	plan := planMemory(cfg, d, rn.vfb)
	if oomPreflight(rep, design, cfg, plan) {
		return rep, nil
	}
	return rn.replay(design, rep, plan, measureFor(d, cfg))
}

// Measure performs the Measure layer only: the real sampling work of cfg
// against d, recorded as a cost-model-free measurement that Replay can
// price under any design, cache policy, cache ratio or GPU count that
// shares the same sampling content (see measure.Spec). With a
// Config.MeasureStore it is memoized by content key.
func Measure(d *gen.Dataset, cfg Config) (*measure.Measurement, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return measureFor(d, cfg), nil
}

// Replay prices a recorded measurement under cfg and simulates it,
// producing a Report bit-identical to Run(m.Dataset, cfg). It errors if
// the measurement's content key does not match what cfg would measure.
func Replay(m *measure.Measurement, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m == nil || m.Dataset == nil {
		return nil, errors.New("system: Replay needs a measurement with its dataset attached")
	}
	if want := measureSpec(m.Dataset, cfg); m.Spec != want {
		return nil, fmt.Errorf("system: measurement key mismatch: measured %+v, config needs %+v", m.Spec, want)
	}
	design, err := designFor(cfg.Design)
	if err != nil {
		return nil, err
	}
	rn := newRunner(m.Dataset, cfg)
	rep := rn.newReport(m.Dataset)
	plan := planMemory(cfg, m.Dataset, rn.vfb)
	if oomPreflight(rep, design, cfg, plan) {
		return rep, nil
	}
	return rn.replay(design, rep, plan, m)
}

// oomPreflight fills rep with any pre-measurement OOM outcome (memory
// plan failure or design preflight) and reports whether the run is over.
func oomPreflight(rep *Report, design Design, cfg Config, plan memPlan) bool {
	if plan.err != nil {
		rep.OOM = true
		rep.OOMReason = plan.err.Error()
	} else if reason := design.Preflight(cfg, plan); reason != "" {
		rep.OOM = true
		rep.OOMReason = reason
	}
	if rep.OOM {
		cfg.Obs.Registry().Counter("core.oom").Add(1)
		if l := cfg.Obs.EventLog(); l.Enabled(obs.LevelError) {
			l.Event(obs.LevelError, "core.oom",
				obs.Attr{Key: "system", Value: rep.System},
				obs.Attr{Key: "dataset", Value: rep.Dataset},
				obs.Attr{Key: "reason", Value: rep.OOMReason})
		}
	}
	return rep.OOM
}

// effectiveAlgorithm returns the sampling algorithm a configuration
// actually measures with. When the system uses the reservoir sampler
// (DGL), measure with it so the scanned adjacency-entry counts — its
// cost basis — are real; the sampled distribution is equivalent.
func effectiveAlgorithm(cfg Config) sampling.Algorithm {
	alg := cfg.Workload.NewSampler()
	if cfg.Sampler == device.SamplerGPUReservoir {
		if kh, ok := alg.(*sampling.KHop); ok {
			alg = sampling.NewKHop(kh.Fanouts, sampling.Reservoir)
		}
	}
	return alg
}

// measureSpec is the content key of cfg's sampling work on d.
func measureSpec(d *gen.Dataset, cfg Config) measure.Spec {
	return measure.SpecFor(d, effectiveAlgorithm(cfg), cfg.Workload.BatchSize, cfg.Epochs, cfg.Seed)
}

// measureFor collects (or fetches from the configured store) the
// measurement for cfg's sampling work on d.
func measureFor(d *gen.Dataset, cfg Config) *measure.Measurement {
	alg := effectiveAlgorithm(cfg)
	spec := measure.SpecFor(d, alg, cfg.Workload.BatchSize, cfg.Epochs, cfg.Seed)
	collect := func() *measure.Measurement {
		return measure.Collect(d, spec, alg, cfg.MeasureWorkers, cfg.Obs)
	}
	sp := cfg.costLane(d).Start("measure")
	defer sp.End(obs.Attr{Key: "stored", Value: cfg.MeasureStore != nil})
	if cfg.MeasureStore != nil {
		return cfg.MeasureStore.GetOrMeasure(spec, collect)
	}
	return collect()
}

// costLane is the Cost layer's wall-clock lane for this configuration:
// process "Cost", one thread per (system, dataset) cell. Disabled (and
// free) when no recorder is configured.
func (c Config) costLane(d *gen.Dataset) obs.Lane {
	if c.Obs == nil {
		return obs.Lane{}
	}
	return c.Obs.Lane("Cost", fmt.Sprintf("%s/%s/%s", c.Name, c.Workload.Name(), d.Name))
}

// replay is the Cost and Simulate layers: probe the measured input sets
// against this configuration's cache tables, have the design price every
// epoch, and run the event engine.
func (rn runner) replay(design Design, rep *Report, plan memPlan, m *measure.Measurement) (*Report, error) {
	cfg := rn.cfg
	d := m.Dataset
	n := d.NumVertices()
	lane := cfg.costLane(d)

	// Build the cache table from the configured policy.
	cacheSp := lane.Start("build-cache")
	var table, standbyTable *cache.Table
	var err error
	if plan.cacheSlots > 0 || plan.standbySlots > 0 {
		var ranking []int32
		var preTime float64
		ranking, preTime, err = buildRanking(cfg, d)
		if err != nil {
			return nil, err
		}
		rep.PreSampleTime = preTime
		table, err = cache.Load(ranking, plan.cacheSlots, n, rn.vfb)
		if err != nil {
			return nil, err
		}
		if plan.standbySlots >= 0 {
			standbyTable, err = cache.Load(ranking, plan.standbySlots, n, rn.vfb)
			if err != nil {
				return nil, err
			}
		}
	} else {
		table = cache.Empty(n, rn.vfb)
		if plan.standbySlots >= 0 {
			standbyTable = cache.Empty(n, rn.vfb)
		}
	}
	rep.CacheRatio = table.Ratio()
	cacheSp.End(
		obs.Attr{Key: "policy", Value: cfg.CachePolicy.String()},
		obs.Attr{Key: "cache_ratio", Value: rep.CacheRatio})

	// Probe the measurement against this configuration's cache tables and
	// price the FLOPs at the feature dimension in effect. Each cell writes
	// only its own pre-sized slot, and hit/miss counters are commutative
	// atomic sums, so the Report is bit-identical at any MeasureWorkers
	// setting.
	probeSp := lane.Start("probe-cache")
	type cellRef struct{ epoch, batch int }
	epochs := make([][]batchWork, len(m.Epochs))
	cells := make([]cellRef, 0, len(m.Epochs)*m.NumBatches())
	for e, batches := range m.Epochs {
		epochs[e] = make([]batchWork, len(batches))
		for b := range batches {
			cells = append(cells, cellRef{epoch: e, batch: b})
		}
	}
	par.ForEach(cfg.MeasureWorkers, len(cells), func(_, i int) {
		c := cells[i]
		mb := &m.Epochs[c.epoch][c.batch]
		w := batchWork{
			sampledEdges: mb.SampledEdges,
			scannedEdges: mb.ScannedEdges,
			walks:        mb.Walks,
			numInput:     len(mb.Input),
			sampleBytes:  mb.SampleBytes,
			flops:        cfg.Workload.FLOPsFor(mb.Layers, rn.dim),
		}
		w.hits, w.misses = table.Extract(mb.Input)
		if standbyTable != nil {
			w.standbyHits, w.standbyMiss = standbyTable.Probe(mb.Input)
		}
		epochs[c.epoch][c.batch] = w
	})
	stats := table.Stats()
	rep.HitRate = stats.HitRate()
	rep.TransferredBytes = stats.MissBytes / int64(cfg.Epochs)
	rep.SamplerPartitions = plan.samplerPartitions
	probeSp.End(
		obs.Attr{Key: "cells", Value: len(cells)},
		obs.Attr{Key: "hit_rate", Value: rep.HitRate})

	// Cost: the design prices each epoch; Simulate: the engine runs it.
	simSp := lane.Start("cost+simulate")
	state, oom := design.Plan(&rn, rep, plan, epochs, standbyTable != nil)
	if oom != "" {
		rep.OOM = true
		rep.OOMReason = oom
		cfg.Obs.Registry().Counter("core.oom").Add(1)
		return rep, nil
	}
	var tot stageTotals
	var makespans float64
	for e, work := range epochs {
		esp := simSp.Child("epoch")
		makespans += rn.simulateEpoch(rep, design.CostEpoch(&rn, rep, state, e, work, &tot))
		esp.End(obs.Attr{Key: "epoch", Value: e})
	}
	rn.finishAverages(rep, makespans, tot)
	simSp.End(obs.Attr{Key: "design", Value: cfg.Design.String()})
	rn.observeReport(rep, stats)
	if cfg.Trace && cfg.Obs != nil && rep.Timeline != nil {
		sim.EmitTrace(cfg.Obs, cfg.Name, rep.Timeline, rep.FaultEvents)
	}
	return rep, nil
}

// observeReport folds a finished replay's headline quantities into the
// configured metrics registry; a nil recorder makes this free.
func (rn runner) observeReport(rep *Report, stats cache.Stats) {
	reg := rn.cfg.Obs.Registry()
	if reg == nil {
		return
	}
	reg.Counter("core.runs").Add(1)
	reg.Counter("core.cache.hits").Add(stats.Hits)
	reg.Counter("core.cache.misses").Add(stats.Misses)
	reg.Counter("core.pcie.transferred_bytes").Add(rep.TransferredBytes * int64(rep.Epochs))
	reg.Counter("core.tasks_by_standby").Add(int64(rep.TasksByStandby))
	if !rn.cfg.Faults.Empty() {
		reg.Counter("fault.injected").Add(int64(rn.cfg.Faults.InjectedWithin(rn.cfg.Epochs)))
		reg.Counter("fault.requeued_tasks").Add(int64(rep.RequeuedTasks))
		reg.Counter("fault.reallocations").Add(int64(rep.Reallocations))
	}
	reg.Histogram("core.epoch_time_s").Observe(rep.EpochTime)
	reg.Histogram("core.hit_rate").Observe(rep.HitRate)
	reg.Histogram("core.sample_total_s").Observe(rep.SampleTotal)
	reg.Histogram("core.extract_total_s").Observe(rep.ExtractTot)
	reg.Histogram("core.train_total_s").Observe(rep.TrainTot)
	if b := rep.Bottleneck; b != nil {
		reg.Gauge("account.sample_frac").Set(b.SampleFrac)
		reg.Gauge("account.extract_frac").Set(b.ExtractFrac)
		reg.Gauge("account.train_frac").Set(b.TrainFrac)
		reg.Gauge("account.stall_frac").Set(b.StallFrac)
	}
	if l := rn.cfg.Obs.EventLog(); l.Enabled(obs.LevelInfo) {
		l.Event(obs.LevelInfo, "core.report",
			obs.Attr{Key: "system", Value: rep.System},
			obs.Attr{Key: "workload", Value: rep.Workload},
			obs.Attr{Key: "dataset", Value: rep.Dataset},
			obs.Attr{Key: "epoch_time_s", Value: rep.EpochTime},
			obs.Attr{Key: "cache_ratio", Value: rep.CacheRatio},
			obs.Attr{Key: "hit_rate", Value: rep.HitRate},
			obs.Attr{Key: "cache_hits", Value: stats.Hits},
			obs.Attr{Key: "cache_misses", Value: stats.Misses},
			obs.Attr{Key: "transferred_bytes", Value: rep.TransferredBytes})
		if b := rep.Bottleneck; b != nil {
			l.Event(obs.LevelInfo, "core.bottleneck",
				obs.Attr{Key: "binding", Value: b.Binding},
				obs.Attr{Key: "makespan_s", Value: b.Makespan},
				obs.Attr{Key: "sample_frac", Value: b.SampleFrac},
				obs.Attr{Key: "extract_frac", Value: b.ExtractFrac},
				obs.Attr{Key: "train_frac", Value: b.TrainFrac},
				obs.Attr{Key: "stall_frac", Value: b.StallFrac})
		}
	}
}

// buildRanking produces the cache ranking for the configured policy and
// its pre-sampling cost (PreSC's; zero for the other policies). With a
// MeasureStore the ranking is memoized by content key; the pre-sampling
// *time* depends on the configuration's cost model and sampler kind, so
// it is always priced per call from the (memoized) edge counts.
func buildRanking(cfg Config, d *gen.Dataset) ([]int32, float64, error) {
	spec := rankSpec(cfg, d)
	in, err := spec.Inputs()
	if err != nil {
		return nil, 0, fmt.Errorf("system: %w", err)
	}
	rank := func() measure.Ranking {
		r, _ := cache.Rank(spec) // spec was validated by Inputs
		return measure.Ranking{Order: r.Hotness.Rank(), PreSample: r.PreSample}
	}
	var r measure.Ranking
	if cfg.MeasureStore != nil {
		r = cfg.MeasureStore.GetOrRank(rankKey(in, d), rank)
	} else {
		r = rank()
	}
	var preTime float64
	if r.PreSample != nil {
		preTime = cfg.Cost.SampleTime(r.PreSample, cfg.Sampler, cfg.Workload.NumLayers())
	}
	return r.Order, preTime, nil
}

// rankSpec is cfg's cache-ranking request on d. Optimal's oracle replays
// the configured run itself: same sampler, seed and epoch count.
func rankSpec(cfg Config, d *gen.Dataset) cache.RankSpec {
	return cache.RankSpec{Policy: cfg.CachePolicy, Graph: d.Graph, Alg: cfg.Workload.NewSampler(), TrainSet: d.TrainSet,
		BatchSize: cfg.Workload.BatchSize, Seed: cfg.Seed, Workers: cfg.MeasureWorkers, PreSCK: cfg.PreSCK, Epochs: cfg.Epochs}
}

// rankKey is the content key of the ranking computed from in, a policy's
// inputs (cache.RankSpec.Inputs).
func rankKey(in cache.RankSpec, d *gen.Dataset) measure.RankKey {
	key := measure.RankKey{
		Dataset:   d.Name,
		Vertices:  d.NumVertices(),
		Edges:     d.Graph.NumEdges(),
		Policy:    strings.ToLower(in.Policy.String()),
		BatchSize: in.BatchSize,
		K:         in.PreSCK,
		Epochs:    in.Epochs,
		Seed:      in.Seed,
	}
	if in.Alg != nil {
		key.Algorithm = sampling.Fingerprint(in.Alg)
	}
	return key
}

// sampleDuration costs the core graph sampling ("G") of one batch.
func (rn runner) sampleDuration(w batchWork) float64 {
	s := &sampling.Sample{SampledEdges: w.sampledEdges, ScannedEdges: w.scannedEdges, Walks: w.walks}
	return rn.cfg.Cost.SampleTime(s, rn.cfg.Sampler, rn.cfg.Workload.NumLayers())
}

// markTime costs the cache-mark extra ("M"): zero when the cache is off.
// Every design's costing path funnels through this one gate.
func (rn runner) markTime(w batchWork) float64 {
	if rn.cfg.CacheEnabled {
		return rn.cfg.Cost.MarkTime(w.numInput)
	}
	return 0
}

// markAndCopy returns the GNNLab sample-stage extras ("M" and "C").
func (rn runner) markAndCopy(w batchWork) (mark, copyT float64) {
	return rn.markTime(w), rn.cfg.Cost.QueueCopyTime(w.sampleBytes)
}

// extractOnly costs the Extract stage of one batch.
func (rn runner) extractOnly(w batchWork, concurrent int, standby bool) float64 {
	hits, misses := w.hits, w.misses
	if standby {
		hits, misses = w.standbyHits, w.standbyMiss
	}
	return rn.cfg.Cost.ExtractTime(int64(hits)*rn.vfb, int64(misses)*rn.vfb, concurrent)
}

// trainerDuration costs a GNNLab Trainer's pre-train work on one batch:
// loading the sample from the host queue plus the Extract stage.
func (rn runner) trainerDuration(w batchWork, numTrainers int, standby bool) float64 {
	if numTrainers < 1 {
		numTrainers = 1
	}
	return rn.cfg.Cost.PCIeLoadTime(w.sampleBytes) + rn.extractOnly(w, numTrainers, standby)
}

// finishAverages divides accumulated sums by the epoch count.
func (rn runner) finishAverages(rep *Report, makespans float64, tot stageTotals) {
	n := float64(rn.cfg.Epochs)
	rep.EpochTime = makespans / n
	rep.SampleG = tot.g / n
	rep.SampleM = tot.m / n
	rep.SampleC = tot.c / n
	rep.SampleTotal = rep.SampleG + rep.SampleM + rep.SampleC
	rep.ExtractTot = tot.e / n
	rep.TrainTot = tot.t / n
}

// IsOOM reports whether err stems from GPU memory exhaustion.
func IsOOM(err error) bool { return errors.Is(err, device.ErrOutOfMemory) }
