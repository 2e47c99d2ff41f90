// Package sampling implements the Sample stage of the SET model (§2):
// graph sampling algorithms that, starting from a mini-batch of training
// vertices, select a bounded neighborhood, deduplicate the sampled vertices
// and reassign them consecutive local IDs starting at zero (Figure 1).
//
// Algorithms provided: k-hop uniform neighborhood sampling in a GPU-friendly
// Fisher–Yates variant (GNNLab/T_SOTA) and a reservoir variant whose cost is
// proportional to vertex degree (the DGL baseline, §7.3), k-hop weighted
// neighborhood sampling, and PinSAGE-style random walks.
package sampling

import (
	"fmt"

	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
)

// Layer is one bipartite sampling block. Edges connect a sampled neighbor
// (Src) to the vertex whose neighborhood was sampled (Dst); both sides use
// local IDs into Sample.Input.
type Layer struct {
	Src []int32 // local IDs of sampled neighbors, len == len(Dst)
	Dst []int32 // local IDs of target vertices
	// NumDst is the number of target vertices of this layer (the frontier
	// the layer expanded).
	NumDst int
	// NumVertices is the number of unique local vertices known after this
	// layer, i.e. targets of the *next* layer live in [0, NumVertices).
	NumVertices int
}

// Sample is the output of the Sample stage for one mini-batch: the unique
// sampled vertices (global IDs, position = local ID; seeds come first) plus
// per-hop bipartite layers, ordered from the seeds outward.
type Sample struct {
	Seeds  []int32
	Input  []int32 // unique global IDs; Input[local] = global
	Layers []Layer

	// CachedMask marks, per local vertex, whether its feature resides in
	// the trainer-side GPU cache. GNNLab marks this during the Sample
	// stage (§5.2, "M" in Table 5); it is nil until marked.
	CachedMask []bool

	// Subgraph marks induced-subgraph samples (ClusterGCN, GraphSAINT):
	// their single layer targets every member vertex rather than an
	// expanding frontier, so layer targets may reference locals
	// introduced by the same layer.
	Subgraph bool

	// Work accounting, consumed by the device cost model.
	SampledEdges int64 // neighbor draws performed
	ScannedEdges int64 // adjacency entries touched (reservoir ∝ degree)
	Walks        int64 // random-walk steps, for the walk-based algorithms
}

// NumInput returns the number of unique sampled vertices, i.e. how many
// feature rows the Extract stage must provide.
func (s *Sample) NumInput() int { return len(s.Input) }

// Bytes estimates the in-memory size of the sample task itself (what gets
// copied through the global queue: "C" in Table 5).
func (s *Sample) Bytes() int64 {
	b := int64(len(s.Input)+len(s.Seeds)) * 4
	for _, l := range s.Layers {
		b += int64(len(l.Src)+len(l.Dst)) * 4
	}
	if s.CachedMask != nil {
		b += int64(len(s.CachedMask))
	}
	return b
}

// Validate checks s with a fresh Validator.
func (s *Sample) Validate() error { return new(Validator).Check(s) }

// Validator checks the structural invariants a correct sampler must
// uphold. Its duplicate-ID set is generation-stamped and reused across
// calls, so checking one sample after another allocates nothing once
// the set has grown to the largest input. The zero value is ready.
type Validator struct {
	ids localizer
}

// Check reports the first invariant s violates.
func (v *Validator) Check(s *Sample) error {
	if len(s.Input) < len(s.Seeds) {
		return fmt.Errorf("sampling: %d inputs but %d seeds", len(s.Input), len(s.Seeds))
	}
	for i, seed := range s.Seeds {
		if s.Input[i] != seed {
			return fmt.Errorf("sampling: input[%d] = %d, want seed %d", i, s.Input[i], seed)
		}
	}
	v.ids.reset(len(s.Input), true)
	for local, global := range s.Input {
		if v.ids.add(global) != int32(local) {
			return fmt.Errorf("sampling: duplicate global vertex %d at local %d", global, local)
		}
	}
	if s.CachedMask != nil && len(s.CachedMask) != len(s.Input) {
		return fmt.Errorf("sampling: CachedMask covers %d vertices, input has %d", len(s.CachedMask), len(s.Input))
	}
	known := len(s.Seeds)
	for li, l := range s.Layers {
		if len(l.Src) != len(l.Dst) {
			return fmt.Errorf("sampling: layer %d: len(Src)=%d len(Dst)=%d", li, len(l.Src), len(l.Dst))
		}
		dstBound := known
		if s.Subgraph {
			// Induced subgraphs target every member of the layer.
			dstBound = l.NumVertices
		}
		for _, d := range l.Dst {
			if d < 0 || int(d) >= dstBound {
				return fmt.Errorf("sampling: layer %d targets unknown local %d (bound %d)", li, d, dstBound)
			}
		}
		for _, src := range l.Src {
			if src < 0 || int(src) >= l.NumVertices {
				return fmt.Errorf("sampling: layer %d: src local %d out of range %d", li, src, l.NumVertices)
			}
		}
		if l.NumVertices < known || l.NumVertices > len(s.Input) {
			return fmt.Errorf("sampling: layer %d: NumVertices %d out of range [%d,%d]", li, l.NumVertices, known, len(s.Input))
		}
		known = l.NumVertices
	}
	if known != len(s.Input) {
		return fmt.Errorf("sampling: layers cover %d locals, input has %d", known, len(s.Input))
	}
	return nil
}

// Algorithm is a graph sampling scheme following the programming model of
// §5.1: given a graph and a mini-batch of seeds it returns a Sample.
// Implementations must be deterministic in (graph, seeds, r). The graph
// arrives as a read-only View — a base CSR or a delta Snapshot — and must
// not change between calls that are meant to be comparable; samplers key
// shared per-graph tables by the View value itself.
type Algorithm interface {
	Name() string
	// NumHops returns the number of layers the algorithm produces.
	NumHops() int
	Sample(g graph.View, seeds []int32, r *rng.Rand) *Sample
}

// localizer assigns consecutive local IDs to global vertex IDs — the
// dedup+remap step of Figure 1. It uses open addressing keyed by global
// ID because this is the hottest path of the Sample stage. Slots are
// generation-stamped: a slot is occupied only if its gen entry matches
// the current generation, so reset is a counter bump instead of a table
// clear and the same table serves every Sample call of an executor.
// Local ID assignment depends only on insertion order, never on table
// geometry, so reuse cannot change a sample.
type localizer struct {
	keys   []int32  // global ID, valid where gen matches cur
	vals   []int32  // local ID
	gen    []uint32 // slot generation stamp
	cur    uint32   // current generation
	mask   uint32
	input  []int32
	filled int
	// grows counts table (re)allocations since last harvested by the
	// owning scratch arena's stats.
	grows int64
}

// newLocalizer returns a localizer ready for roughly `expected` vertices.
func newLocalizer(expected int) *localizer {
	m := &localizer{}
	m.reset(expected, false)
	return m
}

// reset empties the localizer for a new Sample call. The hash table is
// kept (stamp bump) and grown only if `expected` outsizes it. When
// reuseInput is true the input buffer is recycled too — pooled mode —
// otherwise a fresh escaping buffer is allocated, matching the
// historical per-call behavior.
func (m *localizer) reset(expected int, reuseInput bool) {
	size := 64
	for size < expected*2 {
		size <<= 1
	}
	if len(m.keys) < size {
		m.keys = make([]int32, size)
		m.vals = make([]int32, size)
		m.gen = make([]uint32, size)
		m.mask = uint32(size - 1)
		m.cur = 1
		m.grows++
	} else {
		m.cur++
		if m.cur == 0 { // generation wrapped: stamps are ambiguous
			clear(m.gen)
			m.cur = 1
		}
	}
	m.filled = 0
	if reuseInput {
		m.input = m.input[:0]
	} else {
		m.input = make([]int32, 0, expected)
	}
}

// add returns the local ID of global, inserting it if new.
func (m *localizer) add(global int32) int32 {
	h := uint32(global+1) * 2654435761 & m.mask
	for {
		if m.gen[h] != m.cur {
			if m.filled*2 >= len(m.keys) {
				m.grow()
				return m.add(global)
			}
			m.gen[h] = m.cur
			m.keys[h] = global
			local := int32(len(m.input))
			m.vals[h] = local
			m.input = append(m.input, global)
			m.filled++
			return local
		}
		if m.keys[h] == global {
			return m.vals[h]
		}
		h = (h + 1) & m.mask
	}
}

// lookup returns the local ID of global without inserting.
func (m *localizer) lookup(global int32) (int32, bool) {
	h := uint32(global+1) * 2654435761 & m.mask
	for {
		if m.gen[h] != m.cur {
			return 0, false
		}
		if m.keys[h] == global {
			return m.vals[h], true
		}
		h = (h + 1) & m.mask
	}
}

func (m *localizer) grow() {
	oldKeys, oldVals, oldGen, oldCur := m.keys, m.vals, m.gen, m.cur
	size := len(oldKeys) * 2
	m.keys = make([]int32, size)
	m.vals = make([]int32, size)
	m.gen = make([]uint32, size)
	m.mask = uint32(size - 1)
	m.cur = 1
	m.grows++
	for i, g := range oldGen {
		if g != oldCur {
			continue
		}
		k := oldKeys[i]
		h := uint32(k+1) * 2654435761 & m.mask
		for m.gen[h] == m.cur {
			h = (h + 1) & m.mask
		}
		m.gen[h] = m.cur
		m.keys[h] = k
		m.vals[h] = oldVals[i]
	}
}

func (m *localizer) numVertices() int { return len(m.input) }
