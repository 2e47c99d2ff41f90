package sampling

import "gnnlab/internal/graph"

// The sampling hot path is allocation-bound, not arithmetic-bound: every
// Sample call used to build a fresh localizer hash table, fresh edge and
// Input slices and — in the walk- and subgraph-based algorithms — Go maps
// for dedup and visit counting. This file gives each algorithm instance a
// reusable scratch arena instead, and the arena is the only buffer
// discipline: every buffer, including those that escape into the returned
// *Sample (the Sample header, Input, Layers, AdjStart, AdjNbr), is reused
// by the instance's next Sample call. A sample is therefore valid until
// that call; a caller that keeps one copies it with Sample.Clone. An
// instance is not safe for concurrent use — clone one per executor with
// ClonePooled.
//
// Resets are O(1): stamped structures bump a generation counter instead
// of zeroing or reallocating, so steady-state Sample calls perform zero
// heap allocations (pinned by TestSampleSteadyStateZeroAllocs). Reuse
// never changes results: local IDs depend only on insertion order, not
// table geometry, and no RNG draw moves — a warm arena and a new one
// sample bit-identically (TestPooledMatchesFresh).

// ScratchStats counts how an algorithm's scratch arena behaved, for the
// obs counters the measurement engine exports (measure.scratch_*).
type ScratchStats struct {
	// Samples is the number of Sample calls served by this arena.
	Samples int64
	// Reuses counts calls that handed out recycled escaping buffers
	// (every call after the first).
	Reuses int64
	// Grows counts backing-array growths: localizer rebuilds, stamped-set
	// resizes and CSR-buffer reallocations. A steady state has Reuses
	// rising and Grows flat.
	Grows int64
	// RowCacheHits / RowCacheMisses count decoded-row cache lookups for
	// hub rows (degree ≥ rowCacheMinDeg) of compressed views. Hits skip
	// the O(degree) varint decode entirely; on power-law graphs the hub
	// working set is small and recurrent, so hits dominate after warmup.
	RowCacheHits   int64
	RowCacheMisses int64
}

// scratch is the per-algorithm-instance arena. Fields are grouped by the
// algorithms that use them; unused groups stay nil and cost nothing.
type scratch struct {
	stats ScratchStats

	// Escaping buffers: the returned Sample and its slices. start and nbr
	// back the sample's CSR; csrCap is their summed capacity when the
	// current call began, so finish can count a growth.
	loc    localizer
	samp   Sample
	layers []Layer
	start  []int32
	nbr    []int32
	csrCap int

	// Neighbor pick buffer: k-hop draws, induced-row filtering.
	pick []int32

	// Decode buffer for compressed views (graph.NeighborDecoder): every
	// family routes adjacency reads through sc.adj, which decodes into
	// this one reused buffer. Never escapes; capacity converges to the
	// largest degree touched, so steady state stays allocation-free.
	adjBuf []int32
	// Decoded-row cache for compressed views: hub rows decode once and
	// replay from here on later touches (see rowCache).
	rc rowCache

	// RandomWalk: stamped visit counter and top-k selection buffers.
	visits visitCounter
	cand   []visitCand
	top    []int32

	// Subgraph algorithms: member list, vertex-membership stamp, cluster
	// pick stamp and cluster order.
	members []int32
	seen    stampSet
	picked  stampSet
	order   []int32
}

// begin starts one Sample call: it resets the localizer for the expected
// vertex count and localizes the seeds, empties the CSR, and returns the
// localizer plus the arena's Sample to fill.
func (sc *scratch) begin(seeds []int32, expected, hops int) (*localizer, *Sample) {
	sc.stats.Samples++
	if sc.stats.Samples > 1 {
		sc.stats.Reuses++
	}
	sc.loc.reset(expected)
	for _, seed := range seeds {
		sc.loc.add(seed)
	}
	if cap(sc.layers) < hops {
		sc.layers = make([]Layer, 0, hops)
		sc.stats.Grows++
	}
	sc.start = append(sc.start[:0], 0)
	sc.nbr = sc.nbr[:0]
	sc.csrCap = cap(sc.start) + cap(sc.nbr)
	sc.samp = Sample{Seeds: seeds, Layers: sc.layers[:0]}
	return &sc.loc, &sc.samp
}

// frontier returns the next hop's targets: the locals from the first one
// without a row up to the last one known.
func (sc *scratch) frontier() (lo, hi int) { return len(sc.start) - 1, sc.loc.numVertices() }

// row writes the CSR row of the next local: nbrs are the global IDs
// sampled for it, in pick order, and each is localized (so deduplicated)
// as it is written. Every algorithm expands its targets in local-ID order
// and writes one row per target through here, an empty one included.
func (sc *scratch) row(nbrs []int32) {
	out := sc.nbr
	for _, nbr := range nbrs {
		out = append(out, sc.loc.add(nbr))
	}
	sc.nbr = out
	sc.start = append(sc.start, int32(len(out)))
}

// layer closes a hop: its targets are the rows written since the last.
func (sc *scratch) layer() {
	s := &sc.samp
	numDst := len(sc.start) - 1
	for _, l := range s.Layers {
		numDst -= l.NumDst
	}
	s.Layers = append(s.Layers, Layer{NumDst: numDst, NumVertices: sc.loc.numVertices()})
}

// finish seals the Sample: Input is the localizer's dense ID list, the
// locals no layer expanded get empty rows, and the Layers backing is
// stored back for the next call.
func (sc *scratch) finish(s *Sample) *Sample {
	s.Input = sc.loc.input
	for len(sc.start) <= len(s.Input) {
		sc.start = append(sc.start, int32(len(sc.nbr)))
	}
	s.AdjStart, s.AdjNbr = sc.start, sc.nbr
	if cap(sc.start)+cap(sc.nbr) > sc.csrCap {
		sc.stats.Grows++
	}
	sc.stats.Grows += sc.loc.grows
	sc.loc.grows = 0
	sc.layers = s.Layers
	return s
}

// pickBuf returns the neighbor pick buffer with capacity ≥ n.
func (sc *scratch) pickBuf(n int) []int32 {
	if cap(sc.pick) < n {
		sc.pick = make([]int32, n)
		sc.stats.Grows++
	}
	return sc.pick[:n]
}

// Decoded-row cache tuning. Power-law graphs concentrate edge mass on a
// few hundred hub vertices (on the PR-shaped bench graph, ~900 rows with
// degree ≥ 64 hold 90% of all edges), and k-hop frontiers revisit those
// hubs on essentially every Sample call. Decoding a hub row is O(degree)
// varint work to pick a handful of neighbors, so the arena keeps the
// decoded form of hub rows in a small direct-mapped cache: a hit replays
// the row at memcpy speed — the same cost as the aliasing CSR path.
const (
	// rowCacheSlots is the direct-mapped table size (power of two).
	rowCacheSlots = 2048
	// rowCacheMinDeg is the minimum degree worth caching: short rows
	// decode faster than a cache lookup amortizes.
	rowCacheMinDeg = 64
	// rowCacheBudget caps the total cached elements (int32s) across all
	// slots — 4 MB of working memory; over budget, incumbents win.
	rowCacheBudget = 1 << 20
)

// rowCache maps vertex → decoded neighbor row for one View. Slots are
// direct-mapped (conflicts overwrite), buffers persist across evictions
// so steady state allocates nothing, and the whole cache resets when the
// arena is pointed at a different View. Cached rows are read-only to
// callers: sc.adj returns them with mutable=false.
type rowCache struct {
	owner graph.View
	tags  []int32 // vertex per slot, -1 = empty
	rows  [][]int32
	used  int // sum of len(rows[i]), for the admission budget
}

// lookup returns the cached row for v, if present.
func (rc *rowCache) lookup(g graph.View, v int32) ([]int32, bool) {
	if rc.tags == nil {
		return nil, false
	}
	if rc.owner != g {
		rc.reset(g)
		return nil, false
	}
	if slot := uint32(v) & (rowCacheSlots - 1); rc.tags[slot] == v {
		return rc.rows[slot], true
	}
	return nil, false
}

// reset invalidates every slot (keeping buffer capacity) and rebinds the
// cache to g — the arena has switched Views.
func (rc *rowCache) reset(g graph.View) {
	for i := range rc.tags {
		rc.tags[i] = -1
	}
	rc.used = 0
	rc.owner = g
}

// admit copies row into v's slot unless that would exceed the element
// budget (the incumbent then stays). Returns 1 if backing storage grew.
func (rc *rowCache) admit(g graph.View, v int32, row []int32) (grew int64) {
	if rc.tags == nil {
		rc.tags = make([]int32, rowCacheSlots)
		for i := range rc.tags {
			rc.tags[i] = -1
		}
		rc.rows = make([][]int32, rowCacheSlots)
		rc.owner = g
		grew = 1
	}
	slot := uint32(v) & (rowCacheSlots - 1)
	old := rc.rows[slot]
	if rc.used-len(old)+len(row) > rowCacheBudget {
		return grew
	}
	rc.used += len(row) - len(old)
	if cap(old) < len(row) {
		old = make([]int32, len(row))
		grew = 1
	}
	old = old[:len(row)]
	copy(old, row)
	rc.rows[slot] = old
	rc.tags[slot] = v
	return grew
}

// adj returns the out-neighbors of v: the aliasing g.Adj fast path for
// direct-slice views (dec == nil), or a decode into the arena's reused
// buffer when g implements graph.NeighborDecoder (compressed
// topologies). Hub rows decode once and replay from the arena's row
// cache. mutable reports whether the caller may scribble on the
// returned slice — freshly decoded rows are arena-owned, while aliased
// and cached rows are read-only. Either way the slice is valid only
// until the next sc.adj call. Callers type-assert dec once per Sample,
// outside the row loop.
func (sc *scratch) adj(g graph.View, dec graph.NeighborDecoder, v int32) (adj []int32, mutable bool) {
	if dec == nil {
		return g.Adj(v), false
	}
	if row, ok := sc.rc.lookup(g, v); ok {
		sc.stats.RowCacheHits++
		return row, false
	}
	out := dec.AdjInto(v, sc.adjBuf)
	if cap(out) > cap(sc.adjBuf) {
		sc.adjBuf = out[:0]
		sc.stats.Grows++
	}
	if len(out) >= rowCacheMinDeg {
		sc.stats.RowCacheMisses++
		sc.stats.Grows += sc.rc.admit(g, v, out)
	}
	return out, true
}

// scratchOwner is implemented by the built-in algorithms; it exposes the
// lazily created arena so ScratchStatsOf stays uniform.
type scratchOwner interface {
	scratchArena() *scratch
}

// ClonePooled returns an executor-private instance of alg: Clone's result
// when alg implements Cloner, otherwise alg itself (the caller must then
// not share it across goroutines). Each returned *Sample — including its
// Input, Layers and CSR — is valid only until the instance's next Sample
// call.
func ClonePooled(alg Algorithm) Algorithm {
	if c, ok := alg.(Cloner); ok {
		return c.Clone()
	}
	return alg
}

// ScratchStatsOf reports alg's arena counters; ok is false for custom
// algorithms without an arena.
func ScratchStatsOf(alg Algorithm) (stats ScratchStats, ok bool) {
	if o, isOwner := alg.(scratchOwner); isOwner {
		return o.scratchArena().stats, true
	}
	return ScratchStats{}, false
}

// stampSet is a dense membership set over [0, n) with O(1) generation-
// stamped reset: v is a member iff gen[v] equals the current generation.
type stampSet struct {
	gen []uint32
	cur uint32
}

// reset empties the set for a domain of size n; returns 1 if the backing
// array had to grow (for the arena's Grows counter).
func (s *stampSet) reset(n int) int64 {
	if len(s.gen) < n {
		s.gen = make([]uint32, n)
		s.cur = 1
		return 1
	}
	s.cur++
	if s.cur == 0 { // generation counter wrapped: stamps are ambiguous
		clear(s.gen)
		s.cur = 1
	}
	return 0
}

// has reports whether v is a member.
func (s *stampSet) has(v int32) bool { return s.gen[v] == s.cur }

// add inserts v, reporting whether it was new.
func (s *stampSet) add(v int32) bool {
	if s.gen[v] == s.cur {
		return false
	}
	s.gen[v] = s.cur
	return true
}

// visitCand pairs a visited vertex with its walk visit count.
type visitCand struct {
	v int32
	c int32
}

// visitCounter counts visits per vertex during one frontier vertex's
// random walks: a small open-addressed, generation-stamped hash table
// plus the slot order of first visits (for deterministic iteration). A
// walk visits at most NumPaths×WalkLength distinct vertices, so a table
// sized 2× that bound never fills past half and never needs to grow.
type visitCounter struct {
	keys  []int32
	cnt   []int32
	gen   []uint32
	cur   uint32
	mask  uint32
	order []int32 // slot indexes in first-visit order
}

// reset empties the counter for up to `expected` distinct vertices;
// returns 1 if the table had to be (re)allocated.
func (c *visitCounter) reset(expected int) int64 {
	size := 16
	for size < expected*2 {
		size <<= 1
	}
	c.order = c.order[:0]
	if len(c.keys) < size {
		c.keys = make([]int32, size)
		c.cnt = make([]int32, size)
		c.gen = make([]uint32, size)
		c.mask = uint32(size - 1)
		c.cur = 1
		return 1
	}
	c.cur++
	if c.cur == 0 {
		clear(c.gen)
		c.cur = 1
	}
	return 0
}

// inc adds one visit to v.
func (c *visitCounter) inc(v int32) {
	h := uint32(v+1) * 2654435761 & c.mask
	for {
		if c.gen[h] != c.cur {
			c.gen[h] = c.cur
			c.keys[h] = v
			c.cnt[h] = 1
			c.order = append(c.order, int32(h))
			return
		}
		if c.keys[h] == v {
			c.cnt[h]++
			return
		}
		h = (h + 1) & c.mask
	}
}

// topVisited returns up to k most-visited vertices (excluding self), ties
// broken by ascending vertex ID — the same sequence the former full
// map-sort produced, via a bounded selection: a selection sort of only
// the k requested positions, O(k·m) for the m ≤ NumPaths×WalkLength
// candidates instead of O(m log m) plus a map traversal.
func (sc *scratch) topVisited(k int, self int32) []int32 {
	cand := sc.cand[:0]
	for _, h := range sc.visits.order {
		v := sc.visits.keys[h]
		if v == self {
			continue
		}
		cand = append(cand, visitCand{v: v, c: sc.visits.cnt[h]})
	}
	if k > len(cand) {
		k = len(cand)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(cand); j++ {
			if cand[j].c > cand[best].c || (cand[j].c == cand[best].c && cand[j].v < cand[best].v) {
				best = j
			}
		}
		cand[i], cand[best] = cand[best], cand[i]
	}
	out := sc.top[:0]
	for _, c := range cand[:k] {
		out = append(out, c.v)
	}
	sc.cand, sc.top = cand, out
	return out
}
