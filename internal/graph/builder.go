package graph

import (
	"cmp"
	"fmt"
	"slices"
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

// Build sorts edges into CSR order and returns the finished graph. If
// dedup is true, parallel edges (same src and dst) are merged keeping the
// weight of the edge added first (first weight wins — the stable sort
// preserves insertion order among equal (src,dst) pairs, and dedupEdges
// keeps the earliest). Build validates vertex ranges and returns an error
// on any out-of-range endpoint; AddEdge already panics on those, so this
// only fires for edges injected directly into the slice.
func (b *Builder) Build(dedup bool) (*CSR, error) {
	n := b.numVertices
	for _, e := range b.edges {
		if e.Src < 0 || int(e.Src) >= n || e.Dst < 0 || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d vertices", e.Src, e.Dst, n)
		}
	}
	slices.SortStableFunc(b.edges, func(x, y Edge) int {
		if c := cmp.Compare(x.Src, y.Src); c != 0 {
			return c
		}
		return cmp.Compare(x.Dst, y.Dst)
	})
	edges := b.edges
	if dedup {
		edges = dedupEdges(edges)
	}
	rowPtr := make([]int64, n+1)
	colIdx := make([]int32, len(edges))
	var weights []float32
	if b.weighted {
		weights = make([]float32, len(edges))
	}
	for i, e := range edges {
		rowPtr[e.Src+1]++
		colIdx[i] = e.Dst
		if b.weighted {
			weights[i] = e.Weight
		}
	}
	for v := 0; v < n; v++ {
		rowPtr[v+1] += rowPtr[v]
	}
	return &CSR{RowPtr: rowPtr, ColIdx: colIdx, Weights: weights}, nil
}

func dedupEdges(edges []Edge) []Edge {
	if len(edges) == 0 {
		return edges
	}
	out := edges[:1]
	for _, e := range edges[1:] {
		last := out[len(out)-1]
		if e.Src == last.Src && e.Dst == last.Dst {
			continue
		}
		out = append(out, e)
	}
	return out
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
