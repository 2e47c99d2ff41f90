// Package measure is the first layer of the Measure→Cost→Simulate
// pipeline: it performs the real sampling work of a run — every
// (epoch, batch) mini-batch against the real graph — and records the
// outcome as a cost-model-free Measurement. A Measurement holds counts,
// shapes and input-vertex sets only; it knows nothing about device rates,
// cache tables or system designs, so one Measurement can be replayed
// under arbitrary cache policies, cache ratios, GPU counts and designs
// after the fact (internal/core.Replay). The content key (Spec) makes
// measurements shareable: experiment cells whose sampling work is
// identical measure once and replay many times via Store.
package measure

import (
	"fmt"

	"gnnlab/internal/gen"
	"gnnlab/internal/obs"
	"gnnlab/internal/par"
	"gnnlab/internal/sampling"
	"gnnlab/internal/workload"
)

// Spec is the content key of a measurement: every parameter that changes
// the sampled stream, and nothing that doesn't. Cache policy, cache
// ratio, feature dimension, GPU count and the device cost model are all
// absent by design — they belong to the Cost layer, so sweeps over them
// reuse one measurement. Algorithm is the sampling.Fingerprint of the
// *effective* algorithm (after any system-specific substitution, e.g.
// DGL's reservoir sampler), which is how "workload" and "sampler kind"
// enter the key.
type Spec struct {
	Dataset   string
	Vertices  int
	Edges     int64
	Algorithm string
	BatchSize int
	Epochs    int
	Seed      uint64
}

// SpecFor builds the content key for sampling dataset d with alg.
func SpecFor(d *gen.Dataset, alg sampling.Algorithm, batchSize, epochs int, seed uint64) Spec {
	return Spec{
		Dataset:   d.Name,
		Vertices:  d.NumVertices(),
		Edges:     d.Graph.NumEdges(),
		Algorithm: sampling.Fingerprint(alg),
		BatchSize: batchSize,
		Epochs:    epochs,
		Seed:      seed,
	}
}

// Batch is the measured work of one mini-batch: exactly what the cost
// layer needs to price it later, with no duration or cache decision
// baked in.
type Batch struct {
	SampledEdges int64
	ScannedEdges int64
	Walks        int64
	// SampleBytes is the size of the sample task in the paper's encoding
	// (Sample.Bytes): what crosses the global queue.
	SampleBytes int64
	// Input is the deduplicated global input-vertex set — the feature
	// rows this batch extracts. Replays probe it against whatever cache
	// table the configuration under test builds.
	Input []int32
	// Layers are the per-layer shapes feeding the FLOP model
	// (workload.Spec.FLOPsFor), ordered seeds-outward.
	Layers []workload.LayerDims
}

// Measurement is the recorded sampling work of a full run: Spec plus one
// Batch per (epoch, batch) cell, and the dataset it was measured on (the
// graph is needed again at replay time for cache-ranking policies).
type Measurement struct {
	Spec    Spec
	Dataset *gen.Dataset
	// Epochs[e][b] is mini-batch b of epoch e.
	Epochs [][]Batch
}

// NumBatches returns the per-epoch mini-batch count.
func (m *Measurement) NumBatches() int {
	if len(m.Epochs) == 0 {
		return 0
	}
	return len(m.Epochs[0])
}

// Collect measures dataset d under spec: it plans every (epoch, batch)
// cell serially — shuffles and per-batch RNG streams derived on the
// calling goroutine, keyed by (epoch, batch) — then samples the cells on
// sampling.ReplayEpochs' worker pool. Each cell writes only its own
// pre-sized slot, so the Measurement is bit-identical at any worker
// count. alg must match spec.Algorithm; ReplayEpochs samples with one
// ClonePooled instance per worker.
//
// When rec is non-nil, every cell records a wall-clock "sample" span on
// its worker's lane (process "Measure", one thread per pool worker) and
// the measured volumes feed the recorder's counters. The spans only
// observe: the Measurement is bit-identical with rec nil or not, and a
// nil rec adds no allocations to the loop.
func Collect(d *gen.Dataset, spec Spec, alg sampling.Algorithm, workers int, rec *obs.Recorder) *Measurement {
	cells := sampling.PlanEpochs(d.TrainSet, spec.BatchSize, spec.Epochs, spec.Seed)
	m := &Measurement{Spec: spec, Dataset: d, Epochs: make([][]Batch, spec.Epochs)}
	perEpoch := sampling.NumBatches(len(d.TrainSet), spec.BatchSize)
	for e := range m.Epochs {
		m.Epochs[e] = make([]Batch, perEpoch)
	}
	var lanes []obs.Lane
	var cCells, cSampled, cScanned, cInput, cBytes *obs.Counter
	if rec != nil {
		lanes = make([]obs.Lane, par.Pool(workers, len(cells)))
		for i := range lanes {
			lanes[i] = rec.Lane("Measure", fmt.Sprintf("worker-%d", i))
		}
		reg := rec.Registry()
		cCells = reg.Counter("measure.cells")
		cSampled = reg.Counter("measure.sampled_edges")
		cScanned = reg.Counter("measure.scanned_edges")
		cInput = reg.Counter("measure.input_vertices")
		cBytes = reg.Counter("measure.sample_bytes")
	}
	st := sampling.ReplayEpochs(d.Graph, alg, cells, workers, func(worker int, c sampling.EpochCell, alg sampling.Algorithm) {
		var sp *obs.Span
		if rec != nil {
			sp = lanes[worker].Start("sample")
		}
		s := alg.Sample(d.Graph, c.Seeds, c.R)
		layers := make([]workload.LayerDims, len(s.Layers))
		lo := 0 // each layer's targets follow the previous layer's
		for li, l := range s.Layers {
			hi := lo + l.NumDst
			layers[li] = workload.LayerDims{Edges: int(s.AdjStart[hi] - s.AdjStart[lo]), Targets: l.NumDst}
			lo = hi
		}
		// The sample is pooled (borrowed until the next call on this
		// worker); copy the retained input set out of the arena.
		input := make([]int32, len(s.Input))
		copy(input, s.Input)
		m.Epochs[c.Epoch][c.Batch] = Batch{
			SampledEdges: s.SampledEdges,
			ScannedEdges: s.ScannedEdges,
			Walks:        s.Walks,
			SampleBytes:  s.Bytes(),
			Input:        input,
			Layers:       layers,
		}
		if sp != nil {
			sp.End(
				obs.Attr{Key: "dataset", Value: spec.Dataset},
				obs.Attr{Key: "epoch", Value: c.Epoch},
				obs.Attr{Key: "batch", Value: c.Batch},
				obs.Attr{Key: "sampled_edges", Value: s.SampledEdges},
				obs.Attr{Key: "input_vertices", Value: len(s.Input)})
			cCells.Add(1)
			cSampled.Add(s.SampledEdges)
			cScanned.Add(s.ScannedEdges)
			cInput.Add(int64(len(s.Input)))
			cBytes.Add(s.Bytes())
		}
	})
	if rec != nil {
		reg := rec.Registry()
		reg.Counter("measure.scratch_samples").Add(st.Samples)
		reg.Counter("measure.scratch_reuses").Add(st.Reuses)
		reg.Counter("measure.scratch_grows").Add(st.Grows)
		reg.Counter("measure.scratch_rowcache_hits").Add(st.RowCacheHits)
		reg.Counter("measure.scratch_rowcache_misses").Add(st.RowCacheMisses)
	}
	return m
}
