// Package gnnlab is a from-scratch Go reproduction of GNNLab (EuroSys '22):
// a factored system for sample-based GNN training over GPUs. It provides
//
//   - the factored space-sharing runtime (dedicated Sampler and Trainer
//     executors bridged by an asynchronous global queue), the flexible
//     GPU scheduler and dynamic executor switching of §5;
//   - the general GPU feature-caching scheme of §6 with the Random,
//     Degree (PaGraph), pre-sampling (PreSC#K) and Optimal policies;
//   - graph sampling algorithms (k-hop uniform in Fisher–Yates and
//     reservoir variants, k-hop weighted, PinSAGE random walks);
//   - the baselines the paper compares against (PyG-style CPU sampling,
//     DGL-style time sharing, T_SOTA, AGL batch mode);
//   - a simulated multi-GPU substrate (memory ledger, PCIe, calibrated
//     cost model) standing in for the paper's V100 testbed, and a real
//     CPU tensor/NN stack for training to an accuracy target;
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// # Quick start
//
//	d, err := gnnlab.LoadDataset(gnnlab.DatasetPA)
//	if err != nil { ... }
//	rep, err := gnnlab.Simulate(d, gnnlab.NewGNNLab(gnnlab.NewWorkload(gnnlab.ModelGCN), 8))
//	if err != nil { ... }
//	fmt.Println(rep) // epoch time, S/E/T breakdown, cache ratio, hit rate
//
// See examples/ for runnable programs and DESIGN.md for the architecture
// and the hardware-substitution rules this reproduction follows.
package gnnlab

import (
	"fmt"
	"io"

	"gnnlab/internal/core"
	"gnnlab/internal/device"
	"gnnlab/internal/fault"
	"gnnlab/internal/gen"
	"gnnlab/internal/measure"
	"gnnlab/internal/nn"
	"gnnlab/internal/obs"
	"gnnlab/internal/obs/account"
	"gnnlab/internal/train"
	"gnnlab/internal/workload"
)

// DefaultGPUMemory is the simulated GPU capacity: the paper's 16 GB V100
// scaled by 1/100 alongside the datasets.
const DefaultGPUMemory = device.DefaultGPUMemory

// CostModel holds the calibrated rates of the simulated testbed.
type CostModel = device.CostModel

// DefaultCostModel returns the calibrated testbed rates (see
// internal/device for the calibration anchors).
func DefaultCostModel() CostModel { return device.DefaultCostModel() }

// Dataset is a generated graph dataset with features metadata, labels and
// a training set.
type Dataset = gen.Dataset

// DatasetConfig fully determines a synthetic dataset.
type DatasetConfig = gen.Config

// Dataset presets mirroring the paper's evaluation graphs at 1/100 scale
// (Table 3), plus the labelled community graph used for real training.
const (
	DatasetPR   = gen.PresetPR
	DatasetTW   = gen.PresetTW
	DatasetPA   = gen.PresetPA
	DatasetUK   = gen.PresetUK
	DatasetConv = gen.PresetConv
)

// DatasetNames lists the four evaluation presets in paper order.
func DatasetNames() []string { return gen.PresetNames() }

// LoadDataset generates a preset dataset. Every call generates anew; the
// caller owns the result.
func LoadDataset(name string) (*Dataset, error) { return LoadDatasetScaled(name, 1) }

// LoadDatasetScaled generates a preset shrunk by factor (1 = the preset
// itself), for quick runs. A factor below 1 is an error.
func LoadDatasetScaled(name string, factor int) (*Dataset, error) {
	if factor < 1 {
		return nil, fmt.Errorf("gnnlab: scale factor %d, want >= 1", factor)
	}
	cfg, err := gen.PresetConfig(name)
	if err != nil {
		return nil, err
	}
	return gen.Generate(gen.ScaleDown(cfg, factor))
}

// GenerateDataset builds a dataset from an explicit configuration.
func GenerateDataset(cfg DatasetConfig) (*Dataset, error) { return gen.Generate(cfg) }

// ModelKind identifies one of the paper's GNN models.
type ModelKind = workload.ModelKind

// The paper's three models (§7.1), plus GAT as a library extension.
const (
	ModelGCN       = workload.GCN
	ModelGraphSAGE = workload.GraphSAGE
	ModelPinSAGE   = workload.PinSAGE
	ModelGAT       = workload.GAT
)

// Workload is a fully-parameterized GNN training workload: model kind,
// hidden dimension, mini-batch size, and optionally weighted sampling.
type Workload = workload.Spec

// NewWorkload returns the paper-default workload for a model kind.
func NewWorkload(kind ModelKind) Workload { return workload.NewSpec(kind) }

// SystemConfig describes a complete training system (design, GPUs, cache
// policy, scheduling knobs).
type SystemConfig = core.Config

// Report is the measured outcome of a simulated run: epoch time, stage
// breakdown, cache ratio and hit rate, transferred bytes, allocation.
type Report = core.Report

// System constructors for the paper's four systems.
var (
	// NewGNNLab returns the factored space-sharing system (the paper's
	// contribution) with PreSC#1 caching and flexible scheduling.
	NewGNNLab = core.GNNLab
	// NewTSOTA returns the time-sharing baseline with GPU sampling and a
	// degree cache.
	NewTSOTA = core.TSOTA
	// NewDGL returns the time-sharing baseline with reservoir GPU
	// sampling and no cache.
	NewDGL = core.DGL
	// NewPyG returns the CPU-sampling baseline.
	NewPyG = core.PyG
	// NewAGL returns the per-epoch batch-mode design discussed in §3.
	NewAGL = core.AGL
)

// Simulate runs one system configuration against a dataset: real sampling
// and cache behaviour, simulated device timing. OOM outcomes are reported
// in the Report, mirroring the paper's tables. Simulate is exactly
// Measure followed by Replay.
func Simulate(d *Dataset, cfg SystemConfig) (*Report, error) { return core.Run(d, cfg) }

// Observer records cross-layer observability for runs: hierarchical
// wall-clock spans from the Measure and Cost layers, the simulated
// timeline as trace events (when SystemConfig.Trace is set), live
// training spans, and a metrics registry of counters/gauges/histograms.
// Export the trace with WriteTrace (Chrome/Perfetto trace-event JSON,
// loadable at https://ui.perfetto.dev) and the metrics with
// Registry().Snapshot(). A nil Observer is valid and free: observability
// never changes results, only exposes them.
type Observer = obs.Recorder

// NewObserver returns an empty observer whose wall-clock zero is now.
func NewObserver() *Observer { return obs.NewRecorder() }

// RunObserved is Simulate with observability: spans, counters and (with
// cfg.Trace) the simulated timeline are recorded into o. The Report is
// bit-identical to Simulate(d, cfg) without the observer.
func RunObserved(d *Dataset, cfg SystemConfig, o *Observer) (*Report, error) {
	cfg.Obs = o
	return core.Run(d, cfg)
}

// Account is the exact time accounting of a traced run's epoch: a
// per-lane busy/idle/queue-wait decomposition that sums to lanes ×
// makespan, the critical path through the task dependency graph, and
// factored what-if estimates (±1 GPU per role, degradation removed).
// Reports carry one (Report.Account) whenever SystemConfig.Trace
// captured a timeline; render it with Account.WriteReport.
type Account = account.Account

// AccountSummary is an Account's one-line verdict: which role binds
// epoch time and how the critical path splits across stages.
type AccountSummary = account.Summary

// BuildAccount returns a report's time accounting: the one built during
// the traced run when present, otherwise one reconstructed from the
// report's timeline. It errors when the report has no timeline (the run
// was not traced) or the timeline is inconsistent.
func BuildAccount(rep *Report) (*Account, error) {
	if rep.Account != nil {
		return rep.Account, nil
	}
	var m float64
	for _, rec := range rep.Timeline {
		if rec.TrainEnd > m {
			m = rec.TrainEnd
		}
	}
	return account.Build(account.Input{
		Timeline:    rep.Timeline,
		Makespan:    m,
		FaultEvents: rep.FaultEvents,
	})
}

// EventLog is a leveled, structured JSONL event log. Attach one to an
// Observer with SetEventLog to stream fault injections, scheduler
// reallocations and per-run summaries as machine-parseable lines; a nil
// log is valid, disabled and free.
type EventLog = obs.Log

// Event-log severity levels.
const (
	LogDebug = obs.LevelDebug
	LogInfo  = obs.LevelInfo
	LogWarn  = obs.LevelWarn
	LogError = obs.LevelError
)

// NewEventLog returns an event log writing JSONL records at or above
// min to w.
func NewEventLog(w io.Writer, min obs.Level) *EventLog { return obs.NewLog(w, min) }

// Measurement is the recorded sampling work of a run — a cost-model-free
// artifact (per-batch edge counts, input-vertex sets, layer shapes) that
// Replay can price under any cache policy, cache ratio, GPU count or
// design sharing the same sampling content.
type Measurement = measure.Measurement

// MeasurementStore memoizes Measurements (and cache rankings) by content
// key, so configurations sharing sampling work measure once and replay
// many times. Attach one via SystemConfig.MeasureStore, or pass it to
// the experiment harness, which also loads its datasets through it.
type MeasurementStore = measure.Store

// NewMeasurementStore returns an empty measurement store.
func NewMeasurementStore() *MeasurementStore { return measure.NewStore() }

// Measure performs only the Measure layer of a run: the real sampling
// work of cfg against d. The result feeds Replay.
func Measure(d *Dataset, cfg SystemConfig) (*Measurement, error) { return core.Measure(d, cfg) }

// Replay prices a recorded measurement under cfg and simulates it. The
// Report is bit-identical to Simulate(d, cfg) for any cfg whose sampling
// content matches the measurement — cache policy, cache ratio, feature
// dimension, GPU count and design may all vary freely.
func Replay(m *Measurement, cfg SystemConfig) (*Report, error) { return core.Replay(m, cfg) }

// FaultPlan is a deterministic, seed-keyed fault plan: trainer crashes
// (transient or permanent), slowdown windows, PCIe degradation, global
// queue stalls and allocation failures. Attach one via
// SystemConfig.Faults to inject it into a simulated run, or via
// TrainOptions.Faults to crash-and-recover a live training run. A plan
// is data, not behavior: the same seed and plan reproduce a
// bit-identical Report, and an empty plan changes nothing.
type FaultPlan = fault.Plan

// FaultEvent is one planned fault within a FaultPlan.
type FaultEvent = fault.Event

// FaultKind enumerates the injectable fault classes.
type FaultKind = fault.Kind

// The injectable fault classes (see internal/fault for field semantics).
const (
	FaultTrainerCrash = fault.KindTrainerCrash
	FaultSlowdown     = fault.KindSlowdown
	FaultPCIeDegrade  = fault.KindPCIeDegrade
	FaultQueueStall   = fault.KindQueueStall
	FaultAllocFail    = fault.KindAllocFail
)

// FaultGenOptions sizes a generated fault plan.
type FaultGenOptions = fault.GenOptions

// GenerateFaults builds a deterministic fault plan of n events from seed.
func GenerateFaults(seed uint64, n int, o FaultGenOptions) *FaultPlan {
	return fault.Generate(seed, n, o)
}

// PreprocessCost is the Table 6 preprocessing breakdown.
type PreprocessCost = core.PreprocessCost

// Preprocess estimates preprocessing costs (disk→DRAM, DRAM→GPU,
// pre-sampling) for a configuration.
func Preprocess(d *Dataset, cfg SystemConfig) (PreprocessCost, error) {
	return core.Preprocess(d, cfg)
}

// TrainOptions configures live (non-simulated) training.
type TrainOptions = train.Options

// TrainResult is a completed live training run.
type TrainResult = train.Result

// Train runs real sample-based GNN training (real gradients, real
// accuracy) on a labelled dataset, e.g. the DatasetConv preset.
func Train(d *Dataset, opts TrainOptions) (*TrainResult, error) { return train.Train(d, opts) }

// Model is a trained GNN model: run predictions with Predict, persist with
// SaveCheckpoint / LoadCheckpoint.
type Model = nn.Model
