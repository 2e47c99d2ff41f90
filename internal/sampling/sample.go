// Package sampling implements the Sample stage of the SET model (§2):
// graph sampling algorithms that, starting from a mini-batch of training
// vertices, select a bounded neighborhood, deduplicate the sampled vertices
// and reassign them consecutive local IDs starting at zero (Figure 1).
//
// A Sample carries its edges as one CSR over local IDs, written by the
// sampler as it localizes: row v holds the neighbors sampled for local v,
// in pick order. The sampler is the one owner of that layout and of the
// local-ID invariants; the Trainer's model reads the rows in place
// (nn.Compact is a view of them). Validator re-checks the invariants only
// for samples that code outside this package produced.
//
// Algorithms provided: k-hop uniform neighborhood sampling in a GPU-friendly
// Fisher–Yates variant (GNNLab/T_SOTA) and a reservoir variant whose cost is
// proportional to vertex degree (the DGL baseline, §7.3), k-hop weighted
// neighborhood sampling, PinSAGE-style random walks, and induced-subgraph
// sampling (ClusterGCN, GraphSAINT).
package sampling

import (
	"fmt"
	"slices"

	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
)

// Layer is one sampling hop. Its targets — the frontier it expanded — are
// the NumDst locals that follow the earlier layers' targets (layer 0
// starts at local 0), and its edges are those targets' rows of the
// Sample's CSR, one contiguous range of AdjNbr.
type Layer struct {
	// NumDst is the number of target vertices of this layer.
	NumDst int
	// NumVertices is the number of unique local vertices known after this
	// layer, i.e. targets of the *next* layer live in [0, NumVertices).
	NumVertices int
}

// Sample is the output of the Sample stage for one mini-batch: the unique
// sampled vertices (global IDs, position = local ID; seeds come first),
// their sampled neighbors as a CSR over local IDs, and the per-hop layer
// shapes, ordered from the seeds outward.
type Sample struct {
	Seeds []int32
	Input []int32 // unique global IDs; Input[local] = global

	// AdjStart/AdjNbr is the CSR of sampled edges: the neighbors sampled
	// for local v are AdjNbr[AdjStart[v]:AdjStart[v+1]], as local IDs in
	// pick order. len(AdjStart) == len(Input)+1, and the locals no layer
	// expanded (the leaves) have empty rows.
	AdjStart []int32
	AdjNbr   []int32

	Layers []Layer

	// Work accounting, consumed by the device cost model.
	SampledEdges int64 // neighbor draws performed
	ScannedEdges int64 // adjacency entries touched (reservoir ∝ degree)
	Walks        int64 // random-walk steps, for the walk-based algorithms
}

// Bytes is the size of the sample task as the paper ships it between
// Sampler and Trainer: what Clone's copy into the global queue costs ("C"
// in Table 5) and what the simulator charges for queueing and PCIe. It
// models the paper's COO encoding, not this struct's layout: 4 B per input
// and per seed, 8 B (source and target) per sampled edge.
func (s *Sample) Bytes() int64 {
	return int64(len(s.Input)+len(s.Seeds))*4 + int64(len(s.AdjNbr))*8
}

// Clone returns a deep copy of s — every slice and the work counters —
// that owns its memory: the copy a Sampler makes into the global queue
// (§5.2). A built-in algorithm's sample is valid only until that
// instance's next Sample call, so a caller that keeps one past it keeps a
// Clone. The int32 slices share one exactly-sized
// backing array, capped so that appending to one cannot overwrite
// another.
func (s *Sample) Clone() *Sample {
	buf := make([]int32, 0, len(s.Seeds)+len(s.Input)+len(s.AdjStart)+len(s.AdjNbr))
	take := func(src []int32) []int32 {
		if src == nil {
			return nil
		}
		start := len(buf)
		buf = append(buf, src...)
		return buf[start:len(buf):len(buf)]
	}
	c := *s
	c.Seeds, c.Input = take(s.Seeds), take(s.Input)
	c.AdjStart, c.AdjNbr = take(s.AdjStart), take(s.AdjNbr)
	c.Layers = slices.Clone(s.Layers)
	return &c
}

// Validator checks the structural invariants that code reading a sample
// relies on. The built-in samplers establish them as they sample, so it
// runs only at the trust boundary: on samples from an Algorithm outside
// this package. Its duplicate-ID set is generation-stamped and reused
// across calls, so checking one sample after another allocates nothing
// once the set has grown to the largest input. The zero value is ready.
type Validator struct {
	ids localizer
}

// Check reports the first invariant s violates as a sample of a graph
// with numVertices vertices:
//   - Input holds distinct vertices of the graph and starts with Seeds;
//   - the CSR has one row per input, and its row starts never decrease;
//   - each layer knows at least the vertices the one before it knew, its
//     targets are known after it, and the last layer knows every input;
//   - a local first known before layer h has only neighbors known after
//     layer h (locals known after the last layer: any local), which is
//     what lets each GNN level read just a prefix of the locals;
//   - locals past every layer's targets have empty rows.
func (v *Validator) Check(s *Sample, numVertices int) error {
	if s == nil {
		return fmt.Errorf("sampling: nil sample")
	}
	n := len(s.Input)
	if n < len(s.Seeds) {
		return fmt.Errorf("sampling: %d inputs but %d seeds", n, len(s.Seeds))
	}
	for i, seed := range s.Seeds {
		if s.Input[i] != seed {
			return fmt.Errorf("sampling: input[%d] = %d, want seed %d", i, s.Input[i], seed)
		}
	}
	v.ids.reset(n)
	for local, global := range s.Input {
		if global < 0 || int(global) >= numVertices {
			return fmt.Errorf("sampling: input[%d] = %d is not a vertex of the %d-vertex graph", local, global, numVertices)
		}
		if v.ids.add(global) != int32(local) {
			return fmt.Errorf("sampling: duplicate global vertex %d at local %d", global, local)
		}
	}
	if len(s.AdjStart) != n+1 || s.AdjStart[0] != 0 || int(s.AdjStart[n]) != len(s.AdjNbr) {
		return fmt.Errorf("sampling: CSR has %d row starts for %d inputs and %d edges", len(s.AdjStart), n, len(s.AdjNbr))
	}
	for r := range n {
		if s.AdjStart[r+1] < s.AdjStart[r] {
			return fmt.Errorf("sampling: CSR row %d ends before it starts", r)
		}
	}
	lo, known, targets := 0, len(s.Seeds), 0
	for li, l := range s.Layers {
		if l.NumVertices < known || l.NumVertices > n {
			return fmt.Errorf("sampling: layer %d: NumVertices %d out of range [%d,%d]", li, l.NumVertices, known, n)
		}
		targets += l.NumDst
		if l.NumDst < 0 || targets > l.NumVertices {
			return fmt.Errorf("sampling: layer %d: targets end at local %d, past the %d known after it", li, targets, l.NumVertices)
		}
		if err := checkNeighbors(s, lo, known, l.NumVertices); err != nil {
			return err
		}
		lo, known = known, l.NumVertices
	}
	if known != n {
		return fmt.Errorf("sampling: layers cover %d locals, input has %d", known, n)
	}
	if err := checkNeighbors(s, lo, n, n); err != nil {
		return err
	}
	if int(s.AdjStart[targets]) != len(s.AdjNbr) {
		return fmt.Errorf("sampling: locals past the %d layer targets have sampled neighbors", targets)
	}
	return nil
}

// checkNeighbors checks that the rows of locals [lo, hi) hold only
// neighbors in [0, bound).
func checkNeighbors(s *Sample, lo, hi, bound int) error {
	for _, nbr := range s.AdjNbr[s.AdjStart[lo]:s.AdjStart[hi]] {
		if nbr < 0 || int(nbr) >= bound {
			return fmt.Errorf("sampling: a local in [%d,%d) has neighbor local %d, outside the %d known after its layer", lo, hi, nbr, bound)
		}
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

// reset empties the localizer for a new Sample call. The hash table is
// kept (stamp bump) and grown only if `expected` outsizes it; the input
// buffer is recycled too.
func (m *localizer) reset(expected int) {
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
	m.input = m.input[:0]
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
