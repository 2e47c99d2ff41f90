package graph

import (
	"fmt"
	"slices"

	"gnnlab/internal/par"
)

// Edge is a directed edge with an optional weight, used while building.
type Edge struct {
	Src, Dst int32
	Weight   float32
}

// Builder accumulates edges and produces a CSR. It is the bridge between
// the synthetic generators and the immutable store. Builders are not safe
// for concurrent use.
type Builder struct {
	numVertices int
	weighted    bool
	edges       []Edge
}

// NewBuilder returns a builder for a graph with n vertices. If weighted is
// true the resulting CSR carries per-edge weights.
func NewBuilder(n int, weighted bool) *Builder {
	if n <= 0 {
		panic("graph: NewBuilder with non-positive vertex count")
	}
	return &Builder{numVertices: n, weighted: weighted}
}

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// AddEdge appends a directed edge. Weight is ignored for unweighted
// builders. Both endpoints must be in [0, NumVertices); AddEdge panics
// eagerly on an out-of-range endpoint so the faulty call site is in the
// stack trace, instead of surfacing edges later as a Build error far from
// where they were produced.
func (b *Builder) AddEdge(src, dst int32, weight float32) {
	if src < 0 || int(src) >= b.numVertices || dst < 0 || int(dst) >= b.numVertices {
		panic(fmt.Sprintf("graph: AddEdge (%d,%d) out of range for %d vertices", src, dst, b.numVertices))
	}
	b.edges = append(b.edges, Edge{Src: src, Dst: dst, Weight: weight})
}

// Grow reserves capacity for n additional edges.
func (b *Builder) Grow(n int) {
	if cap(b.edges)-len(b.edges) < n {
		grown := make([]Edge, len(b.edges), len(b.edges)+n)
		copy(grown, b.edges)
		b.edges = grown
	}
}

// Build returns the edges as a CSR: rows by source, each row by
// destination, parallel edges in the order they were added. If dedup is
// true, parallel edges are merged keeping the weight of the edge added
// first. Build returns an error on an out-of-range endpoint (AddEdge
// panics on those, so this only fires for edges injected directly into
// the slice). It never changes the added edges, so it may be called again,
// in either mode and after more AddEdge calls.
//
// It counts each source's edges into RowPtr, scatters the edges in
// insertion order straight into ColIdx and Weights, and sorts each row on
// its own, on the row pool: no sort over the whole edge list and no second
// edge array. Only dedup's compaction, which moves rows, is serial.
func (b *Builder) Build(dedup bool) (*CSR, error) {
	n := b.numVertices
	rowPtr := make([]int64, n+1)
	for _, e := range b.edges {
		if e.Src < 0 || int(e.Src) >= n || e.Dst < 0 || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d vertices", e.Src, e.Dst, n)
		}
		rowPtr[e.Src+1]++
	}
	for v := 0; v < n; v++ {
		rowPtr[v+1] += rowPtr[v]
	}
	colIdx := make([]int32, len(b.edges))
	var weights []float32
	if b.weighted {
		weights = make([]float32, len(b.edges))
	}
	// rowPtr[v] is row v's cursor; the scatter leaves it at row v+1's
	// start, so one shift restores the starts.
	for _, e := range b.edges {
		i := rowPtr[e.Src]
		colIdx[i] = e.Dst
		if weights != nil {
			weights[i] = e.Weight
		}
		rowPtr[e.Src]++
	}
	copy(rowPtr[1:], rowPtr[:n])
	rowPtr[0] = 0

	sorter := rowSorter{rowPtr, colIdx, weights}
	if len(colIdx) >= parallelBuildEdges {
		par.Run(sorter, n)
	} else {
		sorter.Rows(0, n)
	}
	if !dedup {
		return &CSR{RowPtr: rowPtr, ColIdx: colIdx, Weights: weights}, nil
	}
	out := int64(0)
	for v := 0; v < n; v++ {
		lo, hi := rowPtr[v], rowPtr[v+1]
		rowPtr[v] = out
		for i := lo; i < hi; i++ {
			if out == rowPtr[v] || colIdx[i] != colIdx[out-1] {
				colIdx[out] = colIdx[i]
				if weights != nil {
					weights[out] = weights[i]
				}
				out++
			}
		}
	}
	rowPtr[n] = out
	if weights != nil {
		weights = weights[:out]
	}
	return &CSR{RowPtr: rowPtr, ColIdx: colIdx[:out], Weights: weights}, nil
}

// parallelBuildEdges is the edge count from which Build sorts its rows on
// the row pool.
const parallelBuildEdges = 1 << 14

// rowSorter sorts rows of a scattered CSR in place, each by destination
// and, among equal destinations, by insertion position. Rows are disjoint
// ranges of ColIdx and Weights, so any goroutine may sort any row.
type rowSorter struct {
	rowPtr  []int64
	colIdx  []int32
	weights []float32
}

func (s rowSorter) Rows(lo, hi int) {
	var keys []uint64 // a weighted row's (dst, position) sort keys
	var rowW []float32
	for v := lo; v < hi; v++ {
		start, end := s.rowPtr[v], s.rowPtr[v+1]
		row := s.colIdx[start:end]
		switch {
		case slices.IsSorted(row):
		case s.weights == nil: // equal destinations cannot be told apart
			slices.Sort(row)
		default: // stable by construction: the position breaks ties
			keys = keys[:0]
			for i, d := range row {
				keys = append(keys, uint64(d)<<32|uint64(i))
			}
			slices.Sort(keys)
			rowW = append(rowW[:0], s.weights[start:end]...)
			for i, key := range keys {
				row[i], s.weights[start+int64(i)] = int32(key>>32), rowW[uint32(key)]
			}
		}
	}
}

// FromAdjacency builds a CSR directly from an adjacency list, mainly for
// tests. adj[v] lists the out-neighbors of v.
func FromAdjacency(adj [][]int32) (*CSR, error) {
	b := NewBuilder(len(adj), false)
	for src, nbrs := range adj {
		for _, dst := range nbrs {
			b.AddEdge(int32(src), dst, 0)
		}
	}
	return b.Build(false)
}
