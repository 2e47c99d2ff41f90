// Package graph implements the compressed-sparse-row (CSR) graph store that
// every other subsystem operates on: samplers read neighbor lists from it,
// the device model accounts its bytes when it is loaded into simulated GPU
// memory, and the generators in internal/gen produce it.
//
// Vertex IDs are dense int32 values in [0, NumVertices). Edges are directed;
// Adj(v) lists the out-neighbors of v, which for sample-based GNN training
// are the vertices whose features v aggregates.
package graph

import (
	"errors"
	"fmt"
)

// VertexID identifies a vertex. IDs are dense, starting at 0.
type VertexID = int32

// CSR is an immutable directed graph in compressed-sparse-row form — the
// base implementation of View.
// The out-neighbors of vertex v are ColIdx[RowPtr[v]:RowPtr[v+1]].
// If Weights is non-nil it is parallel to ColIdx and holds per-edge weights
// (e.g. the "registration year" used by weighted neighborhood sampling).
type CSR struct {
	RowPtr  []int64   // len NumVertices+1, monotonically non-decreasing
	ColIdx  []int32   // len NumEdges
	Weights []float32 // nil, or len NumEdges
}

var _ View = (*CSR)(nil)

// NumVertices returns the number of vertices.
func (g *CSR) NumVertices() int { return len(g.RowPtr) - 1 }

// NumEdges returns the number of directed edges.
func (g *CSR) NumEdges() int64 { return g.RowPtr[len(g.RowPtr)-1] }

// Degree returns the out-degree of v.
func (g *CSR) Degree(v VertexID) int64 { return g.RowPtr[v+1] - g.RowPtr[v] }

// Adj returns the out-neighbor slice of v. The slice aliases graph storage
// and must not be modified.
func (g *CSR) Adj(v VertexID) []int32 { return g.ColIdx[g.RowPtr[v]:g.RowPtr[v+1]] }

// AdjWeights returns the weights parallel to Adj(v), or nil when the graph
// is unweighted.
func (g *CSR) AdjWeights(v VertexID) []float32 {
	if g.Weights == nil {
		return nil
	}
	return g.Weights[g.RowPtr[v]:g.RowPtr[v+1]]
}

// Weighted reports whether the graph carries edge weights.
func (g *CSR) Weighted() bool { return g.Weights != nil }

// TopologyBytes returns the in-memory size of the topology (row pointers +
// column indices + weights). This is the quantity the paper calls Vol_G and
// what a Sampler must fit in GPU memory.
func (g *CSR) TopologyBytes() int64 {
	b := int64(len(g.RowPtr))*8 + int64(len(g.ColIdx))*4
	if g.Weights != nil {
		b += int64(len(g.Weights)) * 4
	}
	return b
}

// TopologyBytesUnweighted returns the topology size excluding edge
// weights — what a Sampler loads for an unweighted sampling algorithm.
func (g *CSR) TopologyBytesUnweighted() int64 {
	return int64(len(g.RowPtr))*8 + int64(len(g.ColIdx))*4
}

// Validate checks structural invariants and returns a descriptive error for
// the first violation found.
func (g *CSR) Validate() error {
	if len(g.RowPtr) == 0 {
		return errors.New("graph: empty RowPtr")
	}
	if g.RowPtr[0] != 0 {
		return fmt.Errorf("graph: RowPtr[0] = %d, want 0", g.RowPtr[0])
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.RowPtr[v+1] < g.RowPtr[v] {
			return fmt.Errorf("graph: RowPtr not monotone at vertex %d", v)
		}
	}
	if got, want := int64(len(g.ColIdx)), g.RowPtr[n]; got != want {
		return fmt.Errorf("graph: len(ColIdx) = %d, want RowPtr[n] = %d", got, want)
	}
	for i, dst := range g.ColIdx {
		if dst < 0 || int(dst) >= n {
			return fmt.Errorf("graph: edge %d targets out-of-range vertex %d (n=%d)", i, dst, n)
		}
	}
	if g.Weights != nil {
		if len(g.Weights) != len(g.ColIdx) {
			return fmt.Errorf("graph: len(Weights) = %d, want %d", len(g.Weights), len(g.ColIdx))
		}
		for i, w := range g.Weights {
			if w < 0 || w != w { // negative or NaN
				return fmt.Errorf("graph: invalid weight %v at edge %d", w, i)
			}
		}
	}
	return nil
}
