package gnnlab

import (
	"io"

	"gnnlab/internal/gen"
	"gnnlab/internal/graph"
)

// Graph is the immutable CSR graph store — the base implementation of
// GraphView that every subsystem operates on.
type Graph = graph.CSR

// GraphView is the read-only graph interface samplers and cache policies
// consume: a base *Graph, or a *GraphSnapshot published by a GraphDelta.
type GraphView = graph.View

// GraphDelta is an append-only edge/vertex overlay over a base Graph for
// dynamic-graph workloads. Snapshot() publishes the current state as an
// immutable GraphView with snapshot isolation; Compact() merges the
// overlay into a fresh base Graph.
type GraphDelta = graph.Delta

// GraphSnapshot is the immutable view a GraphDelta publishes.
type GraphSnapshot = graph.Snapshot

// NewGraphDelta returns an empty overlay over base. With dedup, duplicate
// (src,dst) edges are dropped (first weight wins), matching
// GraphBuilder.Build(dedup=true).
func NewGraphDelta(base *Graph, dedup bool) *GraphDelta { return graph.NewDelta(base, dedup) }

// GraphPacked is the compressed, mmap-able topology store: adjacency is
// delta-varint encoded in blocks behind a sampled offset directory,
// ~2.5-3.5x smaller than CSR on the preset graphs. It implements
// GraphView plus the NeighborDecoder decode fast path the sampling
// arenas use, so every sampler runs over it allocation-free with
// bit-identical results.
type GraphPacked = graph.Packed

// PackGraph compresses any GraphView into the packed layout. Encoding
// fans out over GOMAXPROCS cores with the same output bytes at any
// setting.
func PackGraph(g GraphView) *GraphPacked { return graph.Pack(g, 0) }

// PackDataset returns a shallow copy of d with its topology converted to
// the compressed packed layout; datasets holding non-CSR views are
// returned unchanged. Each call encodes the topology anew.
func PackDataset(d *Dataset) *Dataset { return gen.PackDataset(d) }

// GraphBuilder accumulates edges and produces a Graph. Build does not
// consume the edges: it may be called again, in either dedup mode and
// after more AddEdge calls, and returns what a fresh builder holding the
// same edges would.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a graph with n vertices.
func NewGraphBuilder(n int, weighted bool) *GraphBuilder { return graph.NewBuilder(n, weighted) }

// WriteGraph serializes g in the binary CSR format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteBinary(w, g) }

// ReadGraph deserializes a graph written by WriteGraph, validating it.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// WriteDataset serializes a complete dataset (graph, training set, labels
// and features when present) in the binary dataset format.
func WriteDataset(w io.Writer, d *Dataset) error { return gen.WriteDataset(w, d) }

// ReadDataset deserializes a dataset written by WriteDataset.
func ReadDataset(r io.Reader, name string) (*Dataset, error) { return gen.ReadDataset(r, name) }
