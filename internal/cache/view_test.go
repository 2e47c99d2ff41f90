package cache

import (
	"reflect"
	"testing"

	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
)

// deltaRebuildPair builds the same skewed weighted graph two ways: a prefix
// of the edge stream into a base CSR with the suffix (and nNew late-born
// vertices) applied through a graph.Delta, and the whole stream through one
// Builder. Cache policies evaluated over the two views must agree bit for
// bit.
func deltaRebuildPair(t *testing.T, seed uint64, nBase, nNew, e int) (*graph.Snapshot, *graph.CSR) {
	t.Helper()
	n := nBase + nNew
	r := rng.New(seed)
	z := rng.NewZipf(uint64(n), 1.1)
	perm := r.Perm(n)
	type edge struct {
		src, dst int32
		w        float32
	}
	var baseEdges, deltaEdges []edge
	for i := 0; i < e; i++ {
		src := int32(r.Intn(n))
		dst := perm[z.Draw(r)]
		if src == dst {
			continue
		}
		ed := edge{src, dst, float32(r.Float64()) + 0.01}
		if int(src) >= nBase || int(dst) >= nBase || r.Intn(3) == 0 {
			deltaEdges = append(deltaEdges, ed)
		} else {
			baseEdges = append(baseEdges, ed)
		}
	}
	b := graph.NewBuilder(nBase, true)
	for _, ed := range baseEdges {
		b.AddEdge(ed.src, ed.dst, ed.w)
	}
	base, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	d := graph.NewDelta(base, false)
	d.AddVertices(nNew)
	for _, ed := range deltaEdges {
		d.AddEdge(ed.src, ed.dst, ed.w)
	}
	full := graph.NewBuilder(n, true)
	for _, ed := range baseEdges {
		full.AddEdge(ed.src, ed.dst, ed.w)
	}
	for _, ed := range deltaEdges {
		full.AddEdge(ed.src, ed.dst, ed.w)
	}
	want, err := full.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	return d.Snapshot(), want
}

// TestPreSCSnapshotMatchesRebuild: pre-sampling hotness over a delta
// snapshot equals pre-sampling over a from-scratch rebuild, at every worker
// count.
func TestPreSCSnapshotMatchesRebuild(t *testing.T) {
	snap, rebuilt := deltaRebuildPair(t, 3, 500, 50, 9000)
	ts := trainSet(rebuilt.NumVertices(), 60, 4)
	alg := sampling.NewKHop([]int{5, 3}, sampling.FisherYates)
	ref := PreSCN(rebuilt, alg, ts, 16, 2, 77, 1)
	for _, workers := range []int{1, 2, 4} {
		got := PreSCN(snap, alg, ts, 16, 2, 77, workers)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: PreSC over snapshot differs from rebuild reference", workers)
		}
	}
}

// TestFootprintSnapshotMatchesRebuild: the analytic footprint (the basis
// for every hit-rate number in the evaluation) is identical between a
// snapshot and a rebuild, at every worker count.
func TestFootprintSnapshotMatchesRebuild(t *testing.T) {
	snap, rebuilt := deltaRebuildPair(t, 5, 500, 50, 9000)
	ts := trainSet(rebuilt.NumVertices(), 60, 6)
	alg := sampling.NewWeightedKHop([]int{5, 3})
	ref := CollectFootprintN(rebuilt, alg, ts, 16, 2, 99, 1)
	for _, workers := range []int{1, 2, 4} {
		got := CollectFootprintN(snap, alg, ts, 16, 2, 99, workers)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: footprint over snapshot differs from rebuild reference", workers)
		}
	}
}

// TestHotnessApplyDeltaMatchesRecount: maintaining hotness with
// Decay(1)+ApplyDelta must equal recomputing the counts from scratch, and
// decay must preserve ranking while ApplyDelta re-weights fresh signal.
func TestHotnessApplyDeltaMatchesRecount(t *testing.T) {
	h := NewHotness([]float64{5, 3, 8, 1})
	h.Decay(1) // no-op cadence point
	h.ApplyDelta([]DeltaVisit{{Vertex: 1, Count: 2}, {Vertex: 3, Count: 9}, {Vertex: 1, Count: 1}})
	if want := []float64{5, 6, 8, 10}; !reflect.DeepEqual(h.Score, want) {
		t.Errorf("scores = %v, want %v", h.Score, want)
	}
	// Uniform decay must not change the ranking, only the scale.
	before := h.RankTop(4)
	for i := 0; i < 10; i++ {
		h.Decay(0.5)
	}
	if after := h.RankTop(4); !reflect.DeepEqual(before, after) {
		t.Errorf("decay changed ranking: %v -> %v", before, after)
	}
	// Fresh signal now dominates the decayed history.
	h.ApplyDelta([]DeltaVisit{{Vertex: 0, Count: 100}})
	if top := h.RankTop(1); top[0] != 0 {
		t.Errorf("top after fresh burst = %d, want 0", top[0])
	}
	// Grow extends the score vector for vertices born in a delta.
	h.Grow(6)
	h.ApplyDelta([]DeltaVisit{{Vertex: 5, Count: 1e6}})
	if top := h.RankTop(1); top[0] != 5 {
		t.Errorf("top after growth = %d, want 5", top[0])
	}
}

// TestHotnessDecayRenormalizes: thousands of gentle decays must not
// underflow the inflation bookkeeping — scores stay finite and ordering
// survives renormalization.
func TestHotnessDecayRenormalizes(t *testing.T) {
	h := NewHotness([]float64{2, 1})
	for i := 0; i < 5000; i++ {
		h.Decay(0.9)
		h.ApplyDelta([]DeltaVisit{{Vertex: 1, Count: 0.001}})
	}
	s0, s1 := h.Score[0], h.Score[1]
	if s0 <= 0 || s1 <= 0 || s0 > 1e300 || s1 > 1e300 {
		t.Fatalf("scores left finite range: %v %v", s0, s1)
	}
	if s1 <= s0 {
		t.Errorf("steady fresh signal (%v) should outrank fully decayed history (%v)", s1, s0)
	}
}

func TestHotnessDecayPanicsOnBadFactor(t *testing.T) {
	for _, f := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Decay(%v) did not panic", f)
				}
			}()
			h := NewHotness([]float64{1})
			h.Decay(f)
		}()
	}
}
