package graph

import (
	"fmt"
	"sort"
)

// Delta is an append-only edge/vertex overlay on top of an immutable base
// CSR — the mutation half of the dynamic-graph story. New edges and
// vertices accumulate in per-row overlays; Snapshot publishes the current
// state as an immutable View with snapshot isolation (in-flight epochs keep
// sampling the graph they started with while the delta keeps growing), and
// Compact merges everything into a fresh base CSR off the sampling critical
// path.
//
// Isolation is copy-on-write at row granularity: the first mutation of a
// row after a Snapshot privatizes (copies) that row's arrays, so the slices
// captured by earlier snapshots are never written again. Rows are kept
// sorted by destination ID — the same adjacency order Builder.Build
// produces — so a Snapshot is bit-identical to a from-scratch rebuild of
// the same edge set.
//
// A Delta is not safe for concurrent mutation; Snapshots it hands out are
// immutable and safe to share across goroutines.
type Delta struct {
	base  *CSR
	dedup bool
	n     int   // current vertex count (>= base vertex count)
	added int64 // edges added and kept (post-dedup)
	// rows holds the overlay adjacency for touched vertices only.
	rows    map[int32]*deltaRow
	touched []int32 // touched vertices in first-touch order
	snaps   uint64  // snapshot epoch; rows with snap < snaps are frozen
}

// deltaRow is the full adjacency of one touched vertex (base neighbors
// copied in, plus appended ones), sorted by destination ID.
type deltaRow struct {
	nbr  []int32
	wt   []float32 // nil for unweighted graphs
	snap uint64    // delta epoch this row's arrays were privatized in
}

// NewDelta returns an empty overlay over base. If dedup is true, AddEdge
// drops edges whose (src,dst) already exists — matching Builder.Build's
// dedup=true semantics where the first weight wins.
func NewDelta(base *CSR, dedup bool) *Delta {
	return &Delta{
		base:  base,
		dedup: dedup,
		n:     base.NumVertices(),
		rows:  make(map[int32]*deltaRow),
		snaps: 1,
	}
}

// NumEdges returns the current edge count including additions.
func (d *Delta) NumEdges() int64 { return d.base.NumEdges() + d.added }

// AddedEdges returns |Δ|: the number of edges added (and kept) since the
// delta was created. The incremental hotness maintenance in internal/cache
// is O(AddedEdges), not O(NumVertices).
func (d *Delta) AddedEdges() int64 { return d.added }

// AddVertices appends k fresh isolated vertices and returns the ID of the
// first one. New IDs extend the dense range, so snapshots taken before the
// call simply do not know about them.
func (d *Delta) AddVertices(k int) int32 {
	if k < 0 {
		panic("graph: AddVertices with negative count")
	}
	first := int32(d.n)
	d.n += k
	return first
}

// row returns the overlay row for v, creating or privatizing it so it is
// safe to mutate in the current snapshot epoch.
func (d *Delta) row(v int32) *deltaRow {
	r, ok := d.rows[v]
	if !ok {
		// First touch ever: copy the base adjacency so the row holds the
		// complete neighbor list.
		var nbr []int32
		var wt []float32
		if int(v) < d.base.NumVertices() {
			baseAdj := d.base.Adj(v)
			nbr = append(make([]int32, 0, len(baseAdj)+1), baseAdj...)
			if d.base.Weighted() {
				wt = append(make([]float32, 0, len(baseAdj)+1), d.base.AdjWeights(v)...)
			}
		} else if d.base.Weighted() {
			wt = []float32{}
		}
		r = &deltaRow{nbr: nbr, wt: wt, snap: d.snaps}
		d.rows[v] = r
		d.touched = append(d.touched, v)
		return r
	}
	if r.snap < d.snaps {
		// Frozen by a snapshot: privatize before mutating so the snapshot's
		// aliased slices stay untouched (copy-on-write).
		r.nbr = append(make([]int32, 0, len(r.nbr)+1), r.nbr...)
		if r.wt != nil {
			r.wt = append(make([]float32, 0, len(r.wt)+1), r.wt...)
		}
		r.snap = d.snaps
	}
	return r
}

// AddEdge appends the directed edge src->dst, keeping the row sorted by
// destination. It panics eagerly on out-of-range endpoints, mirroring
// Builder.AddEdge. Under dedup, an edge whose (src,dst) already exists is
// dropped (the first weight wins) and AddEdge reports false.
func (d *Delta) AddEdge(src, dst int32, weight float32) bool {
	if src < 0 || int(src) >= d.n || dst < 0 || int(dst) >= d.n {
		panic(fmt.Sprintf("graph: Delta.AddEdge (%d,%d) out of range for %d vertices", src, dst, d.n))
	}
	r := d.row(src)
	// Insert at the upper bound of equal destinations: among duplicate
	// (src,dst) edges this preserves insertion order, exactly what the
	// stable sort in Builder.Build yields.
	i := sort.Search(len(r.nbr), func(i int) bool { return r.nbr[i] > dst })
	if d.dedup && i > 0 && r.nbr[i-1] == dst {
		return false
	}
	r.nbr = append(r.nbr, 0)
	copy(r.nbr[i+1:], r.nbr[i:])
	r.nbr[i] = dst
	if r.wt != nil {
		r.wt = append(r.wt, 0)
		copy(r.wt[i+1:], r.wt[i:])
		r.wt[i] = weight
	}
	d.added++
	return true
}

// Snapshot publishes the delta's current state as an immutable View.
// The snapshot captures slice headers only — O(touched rows), no copying;
// later mutations privatize rows first, so the snapshot never changes.
func (d *Delta) Snapshot() *Snapshot {
	s := &Snapshot{
		base:     d.base,
		n:        d.n,
		edges:    d.NumEdges(),
		weighted: d.base.Weighted(),
	}
	if len(d.touched) > 0 {
		// Open-addressed index over the touched rows: Adj on the sampling
		// hot path must not allocate, so no map lookups with possible
		// growth — a fixed probe table built once here.
		s.idx = newRowIndex(len(d.touched))
		s.rows = make([]snapRow, 0, len(d.touched))
		for _, v := range d.touched {
			r := d.rows[v]
			s.idx.put(v, int32(len(s.rows)))
			s.rows = append(s.rows, snapRow{nbr: r.nbr, wt: r.wt})
		}
	}
	d.snaps++
	return s
}

// Compact merges base + overlay into a fresh CSR in O(|V| + |E|). The
// delta keeps working against its original base afterwards; the typical
// pattern is base = delta.Compact(); delta = NewDelta(base, dedup) once
// the overlay grows past a threshold.
func (d *Delta) Compact() *CSR {
	n := d.n
	rowPtr := make([]int64, n+1)
	total := d.NumEdges()
	colIdx := make([]int32, 0, total)
	var weights []float32
	if d.base.Weighted() {
		weights = make([]float32, 0, total)
	}
	baseN := d.base.NumVertices()
	for v := 0; v < n; v++ {
		if r, ok := d.rows[int32(v)]; ok {
			colIdx = append(colIdx, r.nbr...)
			if weights != nil {
				weights = append(weights, r.wt...)
			}
		} else if v < baseN {
			colIdx = append(colIdx, d.base.Adj(int32(v))...)
			if weights != nil {
				weights = append(weights, d.base.AdjWeights(int32(v))...)
			}
		}
		rowPtr[v+1] = int64(len(colIdx))
	}
	return &CSR{RowPtr: rowPtr, ColIdx: colIdx, Weights: weights}
}

// Snapshot is the immutable delta-overlay View a Delta publishes. Reads of
// untouched vertices go straight to the base CSR; touched vertices resolve
// through a fixed open-addressed index to their frozen overlay rows.
type Snapshot struct {
	base     *CSR
	n        int
	edges    int64
	weighted bool
	idx      *rowIndex
	rows     []snapRow
}

type snapRow struct {
	nbr []int32
	wt  []float32
}

var _ View = (*Snapshot)(nil)

// NumVertices returns the vertex count at snapshot time.
func (s *Snapshot) NumVertices() int { return s.n }

// NumEdges returns the edge count at snapshot time.
func (s *Snapshot) NumEdges() int64 { return s.edges }

// row returns the overlay row index for v, or -1 when v is untouched.
func (s *Snapshot) rowFor(v int32) int32 {
	if s.idx == nil {
		return -1
	}
	return s.idx.get(v)
}

// Adj returns the out-neighbor slice of v, sorted by destination ID.
func (s *Snapshot) Adj(v VertexID) []int32 {
	if i := s.rowFor(v); i >= 0 {
		return s.rows[i].nbr
	}
	if int(v) < s.base.NumVertices() {
		return s.base.Adj(v)
	}
	return nil // vertex added after base, never touched: isolated
}

// AdjWeights returns the weights parallel to Adj(v), or nil when the graph
// is unweighted.
func (s *Snapshot) AdjWeights(v VertexID) []float32 {
	if !s.weighted {
		return nil
	}
	if i := s.rowFor(v); i >= 0 {
		return s.rows[i].wt
	}
	if int(v) < s.base.NumVertices() {
		return s.base.AdjWeights(v)
	}
	return nil
}

// Weighted reports whether the graph carries edge weights.
func (s *Snapshot) Weighted() bool { return s.weighted }

// Degree returns the out-degree of v.
func (s *Snapshot) Degree(v VertexID) int64 {
	if i := s.rowFor(v); i >= 0 {
		return int64(len(s.rows[i].nbr))
	}
	if int(v) < s.base.NumVertices() {
		return s.base.Degree(v)
	}
	return 0
}

// TopologyBytes returns the CSR-equivalent topology size — what loading
// this snapshot (after compaction) into GPU memory would cost. Charging
// compacted bytes keeps capacity planning identical whether a graph
// arrived as a base CSR or through a delta.
func (s *Snapshot) TopologyBytes() int64 {
	b := int64(s.n+1)*8 + s.edges*4
	if s.weighted {
		b += s.edges * 4
	}
	return b
}

// TopologyBytesUnweighted returns the topology size excluding edge weights.
func (s *Snapshot) TopologyBytesUnweighted() int64 {
	return int64(s.n+1)*8 + s.edges*4
}

// rowIndex is a fixed-size open-addressed int32->int32 map (linear probing,
// power-of-two capacity, -1 empty sentinel). It is built once per snapshot
// and read-only afterwards, so lookups on the sampling hot path never
// allocate or lock.
type rowIndex struct {
	keys []int32
	vals []int32
	mask uint32
}

func newRowIndex(n int) *rowIndex {
	capacity := 8
	for capacity < n*2 {
		capacity <<= 1
	}
	ix := &rowIndex{
		keys: make([]int32, capacity),
		vals: make([]int32, capacity),
		mask: uint32(capacity - 1),
	}
	for i := range ix.keys {
		ix.keys[i] = -1
	}
	return ix
}

func (ix *rowIndex) slotFor(k int32) uint32 {
	// Fibonacci hashing spreads dense vertex IDs across the table.
	return (uint32(k) * 2654435769) & ix.mask
}

func (ix *rowIndex) put(k, v int32) {
	s := ix.slotFor(k)
	for ix.keys[s] != -1 {
		s = (s + 1) & ix.mask
	}
	ix.keys[s] = k
	ix.vals[s] = v
}

func (ix *rowIndex) get(k int32) int32 {
	s := ix.slotFor(k)
	for {
		kk := ix.keys[s]
		if kk == k {
			return ix.vals[s]
		}
		if kk == -1 {
			return -1
		}
		s = (s + 1) & ix.mask
	}
}
