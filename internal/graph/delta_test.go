package graph

import (
	"reflect"
	"sort"
	"testing"

	"gnnlab/internal/rng"
)

// randomStream produces a deterministic random edge stream over n vertices.
func randomStream(seed uint64, n, edges int, weighted bool) []Edge {
	r := rng.New(seed)
	out := make([]Edge, edges)
	for i := range out {
		w := float32(0)
		if weighted {
			w = float32(r.Intn(100) + 1)
		}
		out[i] = Edge{Src: int32(r.Intn(n)), Dst: int32(r.Intn(n)), Weight: w}
	}
	return out
}

// buildVia constructs the same graph two ways: prefix edges through a
// Builder into a base CSR, the suffix through a Delta, returning the
// snapshot — and the full stream through one Builder, returning the CSR.
func buildVia(t *testing.T, n int, stream []Edge, split int, weighted, dedup bool) (*Snapshot, *CSR) {
	t.Helper()
	b := NewBuilder(n, weighted)
	for _, e := range stream[:split] {
		b.AddEdge(e.Src, e.Dst, e.Weight)
	}
	base, err := b.Build(dedup)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelta(base, dedup)
	for _, e := range stream[split:] {
		d.AddEdge(e.Src, e.Dst, e.Weight)
	}

	full := NewBuilder(n, weighted)
	for _, e := range stream {
		full.AddEdge(e.Src, e.Dst, e.Weight)
	}
	want, err := full.Build(dedup)
	if err != nil {
		t.Fatal(err)
	}
	return d.Snapshot(), want
}

// assertViewsEqual checks v matches want vertex by vertex, bit-identically.
func assertViewsEqual(t *testing.T, v View, want *CSR) {
	t.Helper()
	if v.NumVertices() != want.NumVertices() {
		t.Fatalf("NumVertices = %d, want %d", v.NumVertices(), want.NumVertices())
	}
	if v.NumEdges() != want.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", v.NumEdges(), want.NumEdges())
	}
	if v.Weighted() != want.Weighted() {
		t.Fatalf("Weighted = %v, want %v", v.Weighted(), want.Weighted())
	}
	for u := 0; u < want.NumVertices(); u++ {
		id := int32(u)
		if v.Degree(id) != want.Degree(id) {
			t.Fatalf("Degree(%d) = %d, want %d", u, v.Degree(id), want.Degree(id))
		}
		got, exp := v.Adj(id), want.Adj(id)
		if len(got) != len(exp) {
			t.Fatalf("Adj(%d): %d neighbors, want %d", u, len(got), len(exp))
		}
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("Adj(%d)[%d] = %d, want %d", u, i, got[i], exp[i])
			}
		}
		gw, ew := v.AdjWeights(id), want.AdjWeights(id)
		if (gw == nil) != (ew == nil) || len(gw) != len(ew) {
			t.Fatalf("AdjWeights(%d) length mismatch", u)
		}
		for i := range ew {
			if gw[i] != ew[i] {
				t.Fatalf("AdjWeights(%d)[%d] = %v, want %v", u, i, gw[i], ew[i])
			}
		}
	}
}

// TestSnapshotMatchesRebuild is the structural half of the differential
// suite: for randomized edge streams, a Delta snapshot must equal a
// from-scratch Builder.Build of the same edge set, bit for bit — including
// under dedup, where both keep the first-added weight.
func TestSnapshotMatchesRebuild(t *testing.T) {
	for _, tc := range []struct {
		name     string
		weighted bool
		dedup    bool
	}{
		{"unweighted", false, false},
		{"weighted", true, false},
		{"weighted-dedup", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				stream := randomStream(seed, 200, 3000, tc.weighted)
				snap, want := buildVia(t, 200, stream, 2000, tc.weighted, tc.dedup)
				assertViewsEqual(t, snap, want)
			}
		})
	}
}

// TestSnapshotDegreeStats checks the degree stats and topology sizes of a
// snapshot agree with the rebuilt CSR's.
func TestSnapshotDegreeStats(t *testing.T) {
	stream := randomStream(11, 150, 2500, true)
	snap, want := buildVia(t, 150, stream, 1500, true, false)
	if !reflect.DeepEqual(OutDegrees(snap), OutDegrees(want)) {
		t.Error("OutDegrees differ")
	}
	if !reflect.DeepEqual(InDegrees(snap), InDegrees(want)) {
		t.Error("InDegrees differ")
	}
	if snap.TopologyBytes() != want.TopologyBytes() {
		t.Errorf("TopologyBytes = %d, want %d", snap.TopologyBytes(), want.TopologyBytes())
	}
	if snap.TopologyBytesUnweighted() != want.TopologyBytesUnweighted() {
		t.Errorf("TopologyBytesUnweighted = %d, want %d",
			snap.TopologyBytesUnweighted(), want.TopologyBytesUnweighted())
	}
}

// TestSnapshotIsolation pins the copy-on-write contract: a snapshot never
// changes, no matter what the delta does afterwards.
func TestSnapshotIsolation(t *testing.T) {
	base, err := FromAdjacency([][]int32{{1, 2}, {2}, {}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelta(base, false)
	d.AddEdge(0, 3, 0)
	s1 := d.Snapshot()
	adj0 := append([]int32(nil), s1.Adj(0)...)

	// Mutate the same row, add vertices, snapshot again, mutate more.
	d.AddEdge(0, 0, 0)
	v := d.AddVertices(2)
	d.AddEdge(v, 1, 0)
	s2 := d.Snapshot()
	d.AddEdge(0, 2, 0)

	if got := s1.Adj(0); !reflect.DeepEqual(got, adj0) {
		t.Errorf("snapshot 1 row mutated: %v, want %v", got, adj0)
	}
	if s1.NumVertices() != 4 {
		t.Errorf("snapshot 1 sees %d vertices, want 4", s1.NumVertices())
	}
	if s1.Degree(0) != 3 || s2.Degree(0) != 4 {
		t.Errorf("Degree(0) = %d/%d across snapshots, want 3/4", s1.Degree(0), s2.Degree(0))
	}
	if s2.NumVertices() != 6 {
		t.Errorf("snapshot 2 sees %d vertices, want 6", s2.NumVertices())
	}
	if got := s2.Adj(v); len(got) != 1 || got[0] != 1 {
		t.Errorf("snapshot 2 Adj(new) = %v, want [1]", got)
	}
	if got := s1.Adj(5); got != nil {
		t.Errorf("snapshot 1 Adj(unknown future vertex) = %v, want nil", got)
	}
}

// TestCompactMatchesSnapshot: compaction produces a CSR identical to the
// snapshot view, and the result validates.
func TestCompactMatchesSnapshot(t *testing.T) {
	stream := randomStream(21, 120, 2000, true)
	snap, want := buildVia(t, 120, stream, 1200, true, false)
	b := NewBuilder(120, true)
	for _, e := range stream[:1200] {
		b.AddEdge(e.Src, e.Dst, e.Weight)
	}
	base, _ := b.Build(false)
	d := NewDelta(base, false)
	for _, e := range stream[1200:] {
		d.AddEdge(e.Src, e.Dst, e.Weight)
	}
	got := d.Compact()
	if err := got.Validate(); err != nil {
		t.Fatalf("compacted CSR invalid: %v", err)
	}
	assertViewsEqual(t, got, want)
	_ = snap
	// The delta keeps working after Compact.
	d.AddEdge(0, 1, 1)
	if d.NumEdges() != want.NumEdges()+1 {
		t.Errorf("delta edge count after Compact = %d, want %d", d.NumEdges(), want.NumEdges()+1)
	}
}

// TestDeltaDedupFirstWeightWins mirrors the Builder semantics: under dedup
// a duplicate (src,dst) is dropped and the first weight survives.
func TestDeltaDedupFirstWeightWins(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1, 7)
	base, _ := b.Build(true)
	d := NewDelta(base, true)
	if d.AddEdge(0, 1, 9) {
		t.Error("dedup delta accepted duplicate of base edge")
	}
	if !d.AddEdge(0, 2, 5) {
		t.Error("dedup delta rejected fresh edge")
	}
	if d.AddEdge(0, 2, 6) {
		t.Error("dedup delta accepted duplicate of delta edge")
	}
	s := d.Snapshot()
	if w := s.AdjWeights(0); len(w) != 2 || w[0] != 7 || w[1] != 5 {
		t.Errorf("weights = %v, want [7 5]", w)
	}
	if d.AddedEdges() != 1 {
		t.Errorf("AddedEdges = %d, want 1", d.AddedEdges())
	}
}

// TestDeltaAddEdgeValidatesEagerly mirrors Builder.AddEdge's eager range
// check.
func TestDeltaAddEdgeValidatesEagerly(t *testing.T) {
	base, _ := FromAdjacency([][]int32{{1}, {}})
	d := NewDelta(base, false)
	for _, bad := range [][2]int32{{0, 2}, {2, 0}, {-1, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			d.AddEdge(bad[0], bad[1], 0)
		}()
	}
	// Vertices added via AddVertices widen the valid range.
	v := d.AddVertices(1)
	d.AddEdge(v, 0, 0)
	d.AddEdge(0, v, 0)
}

// TestDegreeRankTopMatchesFullSort ranks a random graph's vertices by
// descending out-degree, ties by ascending ID, with RadixTop: the
// k-prefix must equal the comparator sort's prefix exactly.
func TestDegreeRankTopMatchesFullSort(t *testing.T) {
	const n = 500
	stream := randomStream(31, n, 6000, false)
	b := NewBuilder(n, false)
	for _, e := range stream {
		b.AddEdge(e.Src, e.Dst, e.Weight)
	}
	g, _ := b.Build(false)
	less := func(a, b int32) bool {
		if da, db := g.Degree(a), g.Degree(b); da != db {
			return da > db
		}
		return a < b
	}
	full := Identity(n)
	sort.Slice(full, func(i, j int) bool { return less(full[i], full[j]) })
	for _, k := range []int{0, 1, 7, 32, 33, 250, 499, 500, 600} {
		got := RadixTop(Identity(n), k, func(ids []int32, keys []uint64) {
			for i, v := range ids {
				keys[i] = ^uint64(g.Degree(v))
			}
		})
		if m := min(k, n); !reflect.DeepEqual(got, full[:m]) {
			t.Errorf("RadixTop(k=%d) differs from the full sort's prefix", k)
		}
	}
}
