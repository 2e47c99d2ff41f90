package graph

// View is the read-only graph contract every subsystem above this layer
// operates on: samplers read neighbor lists from it, the cache layer
// derives hotness metrics over it, and the device model accounts its
// topology bytes. CSR is the immutable base implementation; Snapshot is
// the delta-overlay implementation a Delta hands out for dynamic graphs.
//
// Implementations must be immutable once published: a View handed to a
// sampler never changes, so in-flight epochs and concurrent executors
// always see a consistent graph (snapshot isolation). Adj and AdjWeights
// return slices aliasing graph storage — callers must not modify them.
type View interface {
	// NumVertices returns the number of vertices; IDs are dense in
	// [0, NumVertices).
	NumVertices() int
	// NumEdges returns the number of directed edges.
	NumEdges() int64
	// Degree returns the out-degree of v.
	Degree(v VertexID) int64
	// Adj returns the out-neighbor slice of v, sorted by destination ID.
	Adj(v VertexID) []int32
	// AdjWeights returns the weights parallel to Adj(v), or nil when the
	// graph is unweighted.
	AdjWeights(v VertexID) []float32
	// Weighted reports whether the graph carries edge weights.
	Weighted() bool

	// TopologyBytes and TopologyBytesUnweighted are the Vol_G a Sampler
	// loads into GPU memory, with and without edge weights.
	TopologyBytes() int64
	TopologyBytesUnweighted() int64
}

// OutDegrees returns the out-degree of every vertex of g.
func OutDegrees(g View) []int64 {
	d := make([]int64, g.NumVertices())
	for v := range d {
		d[v] = g.Degree(int32(v))
	}
	return d
}

// InDegrees returns the in-degree of every vertex of g: one pass over every
// row, decoded into one reused buffer when g is a NeighborDecoder.
// Neighbors outside the vertex range (a packed buffer read without
// Validate) are skipped.
func InDegrees(g View) []int64 {
	n := g.NumVertices()
	d := make([]int64, n)
	dec, _ := g.(NeighborDecoder)
	var buf []int32
	for v := 0; v < n; v++ {
		if dec != nil {
			buf = dec.AdjInto(int32(v), buf)
		} else {
			buf = g.Adj(int32(v))
		}
		for _, dst := range buf {
			if dst >= 0 && int(dst) < n {
				d[dst]++
			}
		}
	}
	return d
}

// NeighborDecoder is the optional decode fast path a compressed View
// implements alongside View. AdjInto decodes the out-neighbors of v into
// buf when cap(buf) suffices, into a freshly allocated slice otherwise,
// and returns the decoded row. Unlike View.Adj the result never aliases
// graph storage: it is owned by the caller, who may mutate it in place
// and should keep the returned slice as the next call's buf so decode
// capacity is reused (the sampling scratch arenas thread one such buffer
// per arena, keeping pooled steady-state sampling at 0 allocs/op).
//
// Views whose Adj already returns an aliasing slice at O(1) cost (CSR,
// Snapshot) deliberately do not implement this interface: for them Adj
// is the fast path and a decode copy would be pure overhead. Samplers
// type-assert once per Sample call and fall back to Adj.
type NeighborDecoder interface {
	AdjInto(v VertexID, buf []int32) []int32
}
