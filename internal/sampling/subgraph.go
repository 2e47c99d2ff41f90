package sampling

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
)

// Subgraph-based sampling algorithms (§8, "Other sampling algorithms"):
// instead of expanding L-hop neighborhoods per seed, they select a vertex
// set and train on its induced subgraph. Their access footprints are far
// more uniform across epochs, which is exactly the regime the paper
// predicts limits PreSC's advantage while GNNLab's larger cache capacity
// still helps — the ablation-subgraph experiment measures this.
//
// A subgraph sample is encoded as a single Layer whose targets are every
// member vertex and whose rows are the induced adjacency. NumHops() is 1;
// models consuming these samples apply their convolutions over the same
// induced structure at every layer (as ClusterGCN does).
//
// Member selection runs on the arena's generation-stamped structures: a
// dense stampSet over vertices (sc.seen) replaces the per-call
// seen/picked maps, and the induced-adjacency pass filters each row by
// that same set before the localizer maps the survivors to their locals.

// inducedSample builds the single-layer induced-subgraph sample for the
// given member set on sc's buffers. Seeds must be a prefix of members,
// and sc.seen must hold exactly the members.
func inducedSample(g graph.View, seeds, members []int32, sc *scratch) *Sample {
	dec, _ := g.(graph.NeighborDecoder)
	loc, s := sc.begin(seeds, len(members)*2, 1)
	for _, v := range members {
		loc.add(v)
	}
	for _, v := range loc.input {
		row, _ := sc.adj(g, dec, v)
		in := sc.pickBuf(len(row))[:0]
		for _, nbr := range row {
			if sc.seen.has(nbr) {
				in = append(in, nbr)
			}
		}
		sc.row(in)
		s.SampledEdges += int64(len(in))
		s.ScannedEdges += int64(len(row))
	}
	sc.layer()
	return sc.finish(s)
}

// ClusterGCN is the cluster-based subgraph sampler [15]: the graph is
// pre-partitioned once; a mini-batch trains on the induced subgraph of the
// clusters its seed vertices belong to.
type ClusterGCN struct {
	NumClusters int
	Seed        uint64

	// partitions maps graph.View to its *clusterState; each state's
	// partition is built exactly once (behind a sync.Once) and shared
	// across clones, so concurrent executors read immutable data.
	partitions *sync.Map

	// sc is the reusable arena behind Sample; clone per executor.
	sc *scratch
}

type clusterState struct {
	once sync.Once
	// done publishes the build so the hot path can skip the once.Do
	// closure (which allocates).
	done     atomic.Bool
	clusters [][]int32
	assign   []int32
}

// NewClusterGCN returns a cluster sampler partitioning into numClusters.
func NewClusterGCN(numClusters int, seed uint64) *ClusterGCN {
	if numClusters <= 0 {
		panic("sampling: NewClusterGCN with non-positive cluster count")
	}
	return &ClusterGCN{NumClusters: numClusters, Seed: seed, partitions: &sync.Map{}}
}

// Clone shares the partition across executors but not scratch state.
func (c *ClusterGCN) Clone() Algorithm {
	clone := *c
	clone.sc = nil
	return &clone
}

// scratchArena implements scratchOwner, creating the arena on first use.
func (c *ClusterGCN) scratchArena() *scratch {
	if c.sc == nil {
		c.sc = &scratch{}
	}
	return c.sc
}

// Name implements Algorithm.
func (c *ClusterGCN) Name() string { return fmt.Sprintf("cluster-gcn(%d)", c.NumClusters) }

// NumHops implements Algorithm: subgraph samples are single-layer.
func (c *ClusterGCN) NumHops() int { return 1 }

// Prepare implements Preparer: it partitions g eagerly so concurrent
// executors never contend on the lazy build.
func (c *ClusterGCN) Prepare(g graph.View) { c.ensure(g) }

func (c *ClusterGCN) ensure(g graph.View) *clusterState {
	if e, ok := c.partitions.Load(g); ok {
		st := e.(*clusterState)
		if st.done.Load() {
			return st
		}
	}
	e, _ := c.partitions.LoadOrStore(g, &clusterState{})
	st := e.(*clusterState)
	st.once.Do(func() {
		st.clusters = graph.Partition(g, c.NumClusters, c.Seed)
		st.assign = graph.PartitionAssignment(st.clusters, g.NumVertices())
		st.done.Store(true)
	})
	return st
}

// Sample implements Algorithm: the member set is the union of the seeds'
// clusters (seeds listed first).
func (c *ClusterGCN) Sample(g graph.View, seeds []int32, r *rng.Rand) *Sample {
	st := c.ensure(g)
	_ = r
	sc := c.scratchArena()
	sc.stats.Grows += sc.seen.reset(g.NumVertices())
	members := sc.members[:0]
	members = append(members, seeds...)
	for _, v := range seeds {
		sc.seen.add(v)
	}
	sc.stats.Grows += sc.picked.reset(len(st.clusters))
	order := sc.order[:0]
	for _, v := range seeds {
		cid := st.assign[v]
		if sc.picked.add(cid) {
			order = append(order, cid)
		}
	}
	// Expand clusters in first-seed order (not map order) so the member
	// list — and therefore the sample — is deterministic.
	for _, cid := range order {
		for _, v := range st.clusters[cid] {
			if sc.seen.add(v) {
				members = append(members, v)
			}
		}
	}
	sc.members, sc.order = members, order
	return inducedSample(g, seeds, members, sc)
}

// SAINTNode is GraphSAINT's node sampler [61]: the member set is the seeds
// plus uniformly random vertices up to a budget; training runs on the
// induced subgraph.
type SAINTNode struct {
	Budget int

	// sc is the reusable arena behind Sample; clone per executor.
	sc *scratch
}

// NewSAINTNode returns a node-budget subgraph sampler.
func NewSAINTNode(budget int) *SAINTNode {
	if budget <= 0 {
		panic("sampling: NewSAINTNode with non-positive budget")
	}
	return &SAINTNode{Budget: budget}
}

// Clone returns an independent sampler sharing configuration but not
// scratch state.
func (sn *SAINTNode) Clone() Algorithm {
	c := *sn
	c.sc = nil
	return &c
}

// scratchArena implements scratchOwner, creating the arena on first use.
func (sn *SAINTNode) scratchArena() *scratch {
	if sn.sc == nil {
		sn.sc = &scratch{}
	}
	return sn.sc
}

// Name implements Algorithm.
func (sn *SAINTNode) Name() string { return fmt.Sprintf("saint-node(%d)", sn.Budget) }

// NumHops implements Algorithm.
func (sn *SAINTNode) NumHops() int { return 1 }

// Sample implements Algorithm.
func (sn *SAINTNode) Sample(g graph.View, seeds []int32, r *rng.Rand) *Sample {
	n := g.NumVertices()
	sc := sn.scratchArena()
	sc.stats.Grows += sc.seen.reset(n)
	members := sc.members[:0]
	members = append(members, seeds...)
	for _, v := range seeds {
		sc.seen.add(v)
	}
	for len(members) < sn.Budget+len(seeds) && len(members) < n {
		v := int32(r.Intn(n))
		if sc.seen.add(v) {
			members = append(members, v)
		}
	}
	sc.members = members
	return inducedSample(g, seeds, members, sc)
}

// SAINTEdge is GraphSAINT's edge sampler: the member set is the endpoints
// of uniformly sampled edges plus the seeds.
type SAINTEdge struct {
	EdgeBudget int

	// offsets maps graph.View to its *edgeOffsetState: the per-vertex edge
	// offsets that turn a uniform edge index into (src, dst). A base CSR's
	// RowPtr is used directly; other Views build the prefix sum once,
	// shared across clones (same once+done publication as the weighted
	// tables).
	offsets *sync.Map

	// sc is the reusable arena behind Sample; clone per executor.
	sc *scratch
}

type edgeOffsetState struct {
	once   sync.Once
	done   atomic.Bool
	rowPtr []int64
}

// NewSAINTEdge returns an edge-budget subgraph sampler.
func NewSAINTEdge(budget int) *SAINTEdge {
	if budget <= 0 {
		panic("sampling: NewSAINTEdge with non-positive budget")
	}
	return &SAINTEdge{EdgeBudget: budget, offsets: &sync.Map{}}
}

// Clone returns an independent sampler sharing the edge-offset index but
// not scratch state.
func (se *SAINTEdge) Clone() Algorithm {
	c := *se
	c.sc = nil
	return &c
}

// Prepare implements Preparer: it builds the edge-offset index eagerly so
// concurrent executors never contend on the lazy build.
func (se *SAINTEdge) Prepare(g graph.View) { se.edgeRowPtr(g) }

// edgeRowPtr returns the per-vertex edge offsets for g, building them
// exactly once per View (allocation-free fast path once published).
func (se *SAINTEdge) edgeRowPtr(g graph.View) []int64 {
	if c, ok := g.(*graph.CSR); ok {
		return c.RowPtr
	}
	if se.offsets == nil {
		se.offsets = &sync.Map{}
	}
	if e, ok := se.offsets.Load(g); ok {
		st := e.(*edgeOffsetState)
		if st.done.Load() {
			return st.rowPtr
		}
	}
	e, _ := se.offsets.LoadOrStore(g, &edgeOffsetState{})
	st := e.(*edgeOffsetState)
	st.once.Do(func() {
		st.rowPtr = edgeOffsets(g)
		st.done.Store(true)
	})
	return st.rowPtr
}

// scratchArena implements scratchOwner, creating the arena on first use.
func (se *SAINTEdge) scratchArena() *scratch {
	if se.sc == nil {
		se.sc = &scratch{}
	}
	return se.sc
}

// Name implements Algorithm.
func (se *SAINTEdge) Name() string { return fmt.Sprintf("saint-edge(%d)", se.EdgeBudget) }

// NumHops implements Algorithm.
func (se *SAINTEdge) NumHops() int { return 1 }

// Sample implements Algorithm.
func (se *SAINTEdge) Sample(g graph.View, seeds []int32, r *rng.Rand) *Sample {
	e := g.NumEdges()
	rowPtr := se.edgeRowPtr(g)
	sc := se.scratchArena()
	dec, _ := g.(graph.NeighborDecoder)
	sc.stats.Grows += sc.seen.reset(g.NumVertices())
	members := sc.members[:0]
	members = append(members, seeds...)
	for _, v := range seeds {
		sc.seen.add(v)
	}
	for i := 0; i < se.EdgeBudget; i++ {
		idx := int64(r.Uint64n(uint64(e)))
		src := edgeSource(rowPtr, idx)
		row, _ := sc.adj(g, dec, src)
		dst := row[idx-rowPtr[src]]
		if sc.seen.add(src) {
			members = append(members, src)
		}
		if sc.seen.add(dst) {
			members = append(members, dst)
		}
	}
	sc.members = members
	return inducedSample(g, seeds, members, sc)
}

// edgeSource finds the source vertex of the edge at offset idx by binary
// searching the row pointers.
func edgeSource(rowPtr []int64, idx int64) int32 {
	lo, hi := 0, len(rowPtr)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if rowPtr[mid+1] <= idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}
