package measure

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gnnlab/internal/gen"
	"gnnlab/internal/obs"
	"gnnlab/internal/sampling"
	"gnnlab/internal/workload"
)

func testDataset(t *testing.T) *gen.Dataset {
	t.Helper()
	d, err := gen.LoadPresetScaled(gen.PresetPA, 16)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// setProcs runs the rest of the test at GOMAXPROCS procs; the value the
// test started with comes back at cleanup.
func setProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func testSpec(d *gen.Dataset, w workload.Spec, epochs int) (Spec, workload.Spec) {
	w.BatchSize = workload.DefaultBatchSize / 16
	alg := w.NewSampler()
	return SpecFor(d, alg, w.BatchSize, epochs, 42), w
}

// Collect must be bit-identical at any GOMAXPROCS: cells are planned
// serially and each writes only its own pre-sized slot.
func TestCollectDeterministicAcrossWorkers(t *testing.T) {
	d := testDataset(t)
	spec, w := testSpec(d, workload.NewSpec(workload.GCN), 2)

	setProcs(t, 1)
	ref := Collect(d, spec, w.NewSampler(), nil)
	if ref.NumBatches() == 0 {
		t.Fatal("measurement is empty")
	}
	for _, procs := range []int{2, 7} {
		setProcs(t, procs)
		got := Collect(d, spec, w.NewSampler(), nil)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("GOMAXPROCS %d: Measurement differs from serial reference", procs)
		}
	}
}

func TestCollectShapes(t *testing.T) {
	d := testDataset(t)
	spec, w := testSpec(d, workload.NewSpec(workload.GCN), 3)
	m := Collect(d, spec, w.NewSampler(), nil)

	if len(m.Epochs) != 3 {
		t.Fatalf("epochs = %d, want 3", len(m.Epochs))
	}
	for e, batches := range m.Epochs {
		if len(batches) != m.NumBatches() {
			t.Fatalf("epoch %d has %d batches, want %d", e, len(batches), m.NumBatches())
		}
		for b, mb := range batches {
			if mb.SampledEdges <= 0 || len(mb.Input) == 0 || len(mb.Layers) != w.NumLayers() {
				t.Fatalf("epoch %d batch %d is degenerate: %+v", e, b, mb)
			}
		}
	}
	// Different epochs shuffle differently — the measurement must not be
	// one epoch copied N times.
	if reflect.DeepEqual(m.Epochs[0], m.Epochs[1]) {
		t.Error("epochs 0 and 1 are identical; per-epoch shuffling is lost")
	}
}

// Concurrent GetOrMeasure calls for one spec must run collect exactly
// once, with every other request coalescing onto it.
func TestStoreSingleFlight(t *testing.T) {
	d := testDataset(t)
	spec, w := testSpec(d, workload.NewSpec(workload.GCN), 1)

	store := NewStore()
	var collects atomic.Int64
	const callers = 8
	results := make([]*Measurement, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = store.GetOrMeasure(spec, func() *Measurement {
				collects.Add(1)
				return Collect(d, spec, w.NewSampler(), nil)
			})
		}(i)
	}
	wg.Wait()

	if n := collects.Load(); n != 1 {
		t.Errorf("collect ran %d times, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Errorf("caller %d got a different *Measurement pointer", i)
		}
	}
	hits, misses := store.Stats()
	if misses != 1 || hits != callers-1 {
		t.Errorf("stats = (%d hits, %d misses), want (%d, 1)", hits, misses, callers-1)
	}
}

// Distinct specs are distinct entries; rankings share the same stats.
func TestStoreKeysAndRankings(t *testing.T) {
	d := testDataset(t)
	specA, w := testSpec(d, workload.NewSpec(workload.GCN), 1)
	specB := specA
	specB.Seed++

	store := NewStore()
	collect := func(spec Spec) func() *Measurement {
		return func() *Measurement { return Collect(d, spec, w.NewSampler(), nil) }
	}
	a1 := store.GetOrMeasure(specA, collect(specA))
	b1 := store.GetOrMeasure(specB, collect(specB))
	if a1 == b1 {
		t.Error("different seeds returned the same measurement")
	}
	if a2 := store.GetOrMeasure(specA, collect(specA)); a2 != a1 {
		t.Error("re-request of specA did not return the stored measurement")
	}

	key := RankKey{Dataset: d.Name, Policy: "degree"}
	var ranks atomic.Int64
	rank := func() Ranking {
		ranks.Add(1)
		return Ranking{Order: []int32{3, 1, 2}}
	}
	r1 := store.GetOrRank(key, rank)
	r2 := store.GetOrRank(key, rank)
	if ranks.Load() != 1 {
		t.Errorf("rank ran %d times, want 1", ranks.Load())
	}
	if !reflect.DeepEqual(r1, r2) || len(r1.Order) != 3 {
		t.Errorf("ranking mismatch: %+v vs %+v", r1, r2)
	}

	hits, misses := store.Stats()
	if misses != 3 { // specA, specB, ranking
		t.Errorf("misses = %d, want 3", misses)
	}
	if hits != 2 { // specA re-request + ranking re-request
		t.Errorf("hits = %d, want 2", hits)
	}
}

// TestCollectPooledMatchesFreshReference is the arena differential test:
// Collect (whose workers reuse one arena each across cells) must produce
// measurements byte-identical to a hand-rolled serial collection with a
// new arena per cell, at every GOMAXPROCS. This pins the arena's
// bit-identicality contract end to end — same RNG draw order, same
// shapes, same input sets.
func TestCollectPooledMatchesFreshReference(t *testing.T) {
	d := testDataset(t)
	spec, w := testSpec(d, workload.NewSpec(workload.GCN), 2)

	// Serial reference with a new arena (a new ClonePooled) per cell.
	alg := w.NewSampler()
	sampling.Prepare(alg, d.Graph)
	cells := sampling.PlanEpochs(d.TrainSet, spec.BatchSize, spec.Epochs, spec.Seed)
	ref := &Measurement{Spec: spec, Dataset: d, Epochs: make([][]Batch, spec.Epochs)}
	perEpoch := sampling.NumBatches(len(d.TrainSet), spec.BatchSize)
	for e := range ref.Epochs {
		ref.Epochs[e] = make([]Batch, perEpoch)
	}
	for _, c := range cells {
		s := sampling.ClonePooled(alg).Sample(d.Graph, c.Seeds, c.R)
		layers := make([]workload.LayerDims, len(s.Layers))
		lo := 0
		for li, l := range s.Layers {
			hi := lo + l.NumDst
			layers[li] = workload.LayerDims{Edges: int(s.AdjStart[hi] - s.AdjStart[lo]), Targets: l.NumDst}
			lo = hi
		}
		ref.Epochs[c.Epoch][c.Batch] = Batch{
			SampledEdges: s.SampledEdges,
			ScannedEdges: s.ScannedEdges,
			Walks:        s.Walks,
			SampleBytes:  s.Bytes(),
			Input:        s.Input,
			Layers:       layers,
		}
	}
	refBytes := gobEpochs(t, ref.Epochs)

	for _, procs := range []int{1, 2, 4} {
		setProcs(t, procs)
		got := Collect(d, spec, w.NewSampler(), nil)
		if !reflect.DeepEqual(ref.Epochs, got.Epochs) {
			t.Errorf("GOMAXPROCS %d: pooled Collect differs from fresh serial reference", procs)
		}
		if !bytes.Equal(refBytes, gobEpochs(t, got.Epochs)) {
			t.Errorf("GOMAXPROCS %d: serialized measurements differ", procs)
		}
	}
}

func gobEpochs(t *testing.T, epochs [][]Batch) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(epochs); err != nil {
		t.Fatalf("gob: %v", err)
	}
	return buf.Bytes()
}

// TestCollectScratchCounters checks the arena statistics exported through
// the recorder: with pooled workers the reuse counter must track the cell
// count while growth settles.
func TestCollectScratchCounters(t *testing.T) {
	d := testDataset(t)
	spec, w := testSpec(d, workload.NewSpec(workload.GCN), 2)
	rec := obs.NewRecorder()
	setProcs(t, 2)
	Collect(d, spec, w.NewSampler(), rec)
	vals := rec.Registry().Snapshot().Counters
	cellCount := vals["measure.cells"]
	if cellCount == 0 {
		t.Fatal("no cells recorded")
	}
	if vals["measure.scratch_samples"] != cellCount {
		t.Errorf("scratch_samples = %d, want %d (one per cell)",
			vals["measure.scratch_samples"], cellCount)
	}
	if r := vals["measure.scratch_reuses"]; r <= 0 || r >= cellCount {
		t.Errorf("scratch_reuses = %d, want in (0, %d)", r, cellCount)
	}
}
