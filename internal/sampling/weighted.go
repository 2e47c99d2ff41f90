package sampling

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
)

// WeightedKHop is k-hop weighted neighborhood sampling (ASGCN [28] style):
// layer i draws Fanouts[i] neighbors of each frontier vertex with
// probability proportional to the connecting edge's weight. Draws are with
// replacement (duplicates collapse in the dedup step). A draw
// binary-searches the row's cumulative weights: O(E) floats of
// preprocessing, O(log d) per draw.
type WeightedKHop struct {
	Fanouts []int
	tables  *weightTables

	// sc is the reusable arena behind Sample; clone per executor.
	sc *scratch
}

// weightTables caches the per-graph draw tables so every executor
// cloned from the same sampler shares one O(E) precomputation. Each graph
// View maps to an entry guarded by a sync.Once: the build happens exactly
// once no matter how many clones race, and after it the lookup is a
// lock-free sync.Map read — Sample's hot path never takes a build lock.
// Views are immutable, so keying by the interface value (pointer identity
// of the underlying CSR or Snapshot) is sound. Prefer building eagerly via
// Prepare before fanning out executors.
type weightTables struct {
	cdf sync.Map // graph.View -> *cdfTable
	// builds counts table constructions; tests assert exactly-once builds
	// under concurrent clones.
	builds atomic.Int64
}

// cdfTable is one graph's cumulative-weight array, built once. done is
// the publication flag: set (with release semantics) only after the arrays
// are fully built, so the hot path can skip the sync.Once closure — which
// would otherwise allocate on every Sample call. rowPtr maps vertices to
// edge offsets into cum; for a base CSR it aliases the graph's own RowPtr.
type cdfTable struct {
	once   sync.Once
	done   atomic.Bool
	rowPtr []int64   // len NumVertices+1, edge offsets into cum
	cum    []float32 // cumulative weights per row
}

// edgeOffsets returns per-vertex edge offsets for g: a base CSR's own
// RowPtr, or an O(|V|) prefix sum of degrees for any other View.
func edgeOffsets(g graph.View) []int64 {
	if c, ok := g.(*graph.CSR); ok {
		return c.RowPtr
	}
	n := g.NumVertices()
	rp := make([]int64, n+1)
	for v := 0; v < n; v++ {
		rp[v+1] = rp[v] + g.Degree(int32(v))
	}
	return rp
}

// NewWeightedKHop returns a weighted k-hop sampler with the given fanouts.
func NewWeightedKHop(fanouts []int) *WeightedKHop {
	if len(fanouts) == 0 {
		panic("sampling: NewWeightedKHop with no fanouts")
	}
	for _, f := range fanouts {
		if f <= 0 {
			panic("sampling: NewWeightedKHop with non-positive fanout")
		}
	}
	return &WeightedKHop{
		Fanouts: append([]int(nil), fanouts...),
		tables:  &weightTables{},
	}
}

// Clone returns an independent sampler sharing the weight tables.
func (w *WeightedKHop) Clone() Algorithm {
	return &WeightedKHop{Fanouts: w.Fanouts, tables: w.tables}
}

// scratchArena implements scratchOwner, creating the arena on first use.
func (w *WeightedKHop) scratchArena() *scratch {
	if w.sc == nil {
		w.sc = &scratch{}
	}
	return w.sc
}

// Name implements Algorithm.
func (w *WeightedKHop) Name() string {
	return fmt.Sprintf("%d-hop-weighted", len(w.Fanouts))
}

// NumHops implements Algorithm.
func (w *WeightedKHop) NumHops() int { return len(w.Fanouts) }

// Prepare implements Preparer: it eagerly builds the cumulative-weight
// table for g, so the lazy build never contends once executors fan out.
// No-op on unweighted graphs (Sample reports that error itself).
func (w *WeightedKHop) Prepare(g graph.View) {
	if g.Weighted() {
		w.tables.cumulative(g)
	}
}

// cumulative returns (building exactly once if needed) the cumulative
// weight table for g. The done-flag fast path keeps the steady state
// allocation-free: LoadOrStore with a fresh value and the once.Do
// closure both allocate, so they run only until the build is published.
func (t *weightTables) cumulative(g graph.View) *cdfTable {
	if e, ok := t.cdf.Load(g); ok {
		ct := e.(*cdfTable)
		if ct.done.Load() {
			return ct
		}
	}
	e, _ := t.cdf.LoadOrStore(g, &cdfTable{})
	ct := e.(*cdfTable)
	ct.once.Do(func() {
		t.builds.Add(1)
		rowPtr := edgeOffsets(g)
		cum := make([]float32, g.NumEdges())
		n := g.NumVertices()
		for v := 0; v < n; v++ {
			lo := rowPtr[v]
			var run float32
			for i, w := range g.AdjWeights(int32(v)) {
				run += w
				cum[lo+int64(i)] = run
			}
		}
		ct.rowPtr = rowPtr
		ct.cum = cum
		ct.done.Store(true)
	})
	return ct
}

// Sample implements Algorithm.
func (w *WeightedKHop) Sample(g graph.View, seeds []int32, r *rng.Rand) *Sample {
	if !g.Weighted() {
		panic("sampling: weighted k-hop on unweighted graph")
	}
	ct := w.tables.cumulative(g)
	sc := w.scratchArena()
	dec, _ := g.(graph.NeighborDecoder)
	expect := expectedVertices(len(seeds), w.Fanouts)
	loc, s := sc.begin(seeds, expect, len(w.Fanouts))
	for _, fanout := range w.Fanouts {
		for local, end := sc.frontier(); local < end; local++ {
			v := loc.input[local]
			adj, _ := sc.adj(g, dec, v)
			d := len(adj)
			if d <= fanout {
				// Degenerate case, an empty row included: take everyone
				// once, like the uniform sampler does.
				sc.row(adj)
				s.SampledEdges += int64(d)
				s.ScannedEdges += int64(d)
				continue
			}
			lo := ct.rowPtr[v]
			row := ct.cum[lo : lo+int64(d)]
			picks := sc.pickBuf(fanout)
			for i := range picks {
				u := float32(r.Float64()) * row[d-1]
				picks[i] = adj[searchCDF(row, u)]
			}
			sc.row(picks)
			s.SampledEdges += int64(fanout)
			s.ScannedEdges += int64(fanout) // per-draw cost folded into the rate
		}
		sc.layer()
	}
	return sc.finish(s)
}

// searchCDF returns the first index whose cumulative weight exceeds u —
// sort.Search's loop without the closure — clamped to the last entry so
// float round-off at the top of the range cannot run off the row.
func searchCDF(row []float32, u float32) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= len(row) {
		lo = len(row) - 1
	}
	return lo
}
