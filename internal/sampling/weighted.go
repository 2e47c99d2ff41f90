package sampling

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
)

// WeightedDrawMethod selects how weighted neighbor draws are implemented.
// Both produce the same distribution; they trade preprocessing for
// per-draw cost like real GPU samplers do.
type WeightedDrawMethod int

const (
	// WeightedCDF binary-searches per-row cumulative weights:
	// O(E) floats of preprocessing, O(log d) per draw.
	WeightedCDF WeightedDrawMethod = iota
	// WeightedAlias builds per-row alias tables (Walker's method):
	// 2×O(E) of preprocessing, O(1) per draw.
	WeightedAlias
)

// WeightedKHop is k-hop weighted neighborhood sampling (ASGCN [28] style):
// layer i draws Fanouts[i] neighbors of each frontier vertex with
// probability proportional to the connecting edge's weight. Draws are with
// replacement (duplicates collapse in the dedup step).
type WeightedKHop struct {
	Fanouts []int
	Method  WeightedDrawMethod
	tables  *weightTables

	// sc is the reusable arena behind Sample; clone per executor.
	sc *scratch
}

// weightTables caches the per-graph draw structures so every executor
// cloned from the same sampler shares one O(E) precomputation. Each graph
// View maps to an entry guarded by a sync.Once: the build happens exactly
// once no matter how many clones race, and after it the lookup is a
// lock-free sync.Map read — Sample's hot path never takes a build lock.
// Views are immutable, so keying by the interface value (pointer identity
// of the underlying CSR or Snapshot) is sound. Prefer building eagerly via
// Prepare before fanning out executors.
type weightTables struct {
	cdf   sync.Map // graph.View -> *cdfTable
	alias sync.Map // graph.View -> *aliasTable
	// builds counts table constructions across both methods; tests assert
	// exactly-once builds under concurrent clones.
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

// aliasTable is one graph's per-row alias tables, built once (same
// done-flag publication scheme as cdfTable).
type aliasTable struct {
	once   sync.Once
	done   atomic.Bool
	rowPtr []int64 // len NumVertices+1, edge offsets into fa
	fa     *flatAlias
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

// flatAlias packs one alias table per adjacency row into flat arrays
// aligned with the graph's CSR offsets; alias entries are row-local.
type flatAlias struct {
	prob  []float32
	alias []int32
}

// NewWeightedKHop returns a weighted k-hop sampler with the given fanouts
// using the CDF draw method.
func NewWeightedKHop(fanouts []int) *WeightedKHop {
	return NewWeightedKHopMethod(fanouts, WeightedCDF)
}

// NewWeightedKHopMethod returns a weighted k-hop sampler with an explicit
// draw method.
func NewWeightedKHopMethod(fanouts []int, method WeightedDrawMethod) *WeightedKHop {
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
		Method:  method,
		tables:  &weightTables{},
	}
}

// Clone returns an independent sampler sharing the weight tables.
func (w *WeightedKHop) Clone() Algorithm {
	return &WeightedKHop{Fanouts: w.Fanouts, Method: w.Method, tables: w.tables}
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

// Prepare implements Preparer: it eagerly builds the draw tables of the
// configured method for g, so the lazy build never contends once executors
// fan out. No-op on unweighted graphs (Sample reports that error itself).
func (w *WeightedKHop) Prepare(g graph.View) {
	if !g.Weighted() {
		return
	}
	if w.Method == WeightedAlias {
		w.tables.aliases(g)
	} else {
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

// aliases returns (building exactly once if needed) per-row alias tables
// for g (same allocation-free fast path as cumulative).
func (t *weightTables) aliases(g graph.View) *aliasTable {
	if e, ok := t.alias.Load(g); ok {
		at := e.(*aliasTable)
		if at.done.Load() {
			return at
		}
	}
	e, _ := t.alias.LoadOrStore(g, &aliasTable{})
	at := e.(*aliasTable)
	at.once.Do(func() {
		t.builds.Add(1)
		rowPtr := edgeOffsets(g)
		numEdges := g.NumEdges()
		fa := &flatAlias{
			prob:  make([]float32, numEdges),
			alias: make([]int32, numEdges),
		}
		n := g.NumVertices()
		for v := 0; v < n; v++ {
			weights := g.AdjWeights(int32(v))
			if len(weights) == 0 {
				continue
			}
			lo := rowPtr[v]
			hi := lo + int64(len(weights))
			row := NewAliasTable(weights)
			copy(fa.prob[lo:hi], row.prob)
			copy(fa.alias[lo:hi], row.alias)
		}
		at.rowPtr = rowPtr
		at.fa = fa
		at.done.Store(true)
	})
	return at
}

// Sample implements Algorithm.
func (w *WeightedKHop) Sample(g graph.View, seeds []int32, r *rng.Rand) *Sample {
	if !g.Weighted() {
		panic("sampling: weighted k-hop on unweighted graph")
	}
	var rowPtr []int64
	var cum []float32
	var fa *flatAlias
	if w.Method == WeightedAlias {
		at := w.tables.aliases(g)
		rowPtr, fa = at.rowPtr, at.fa
	} else {
		ct := w.tables.cumulative(g)
		rowPtr, cum = ct.rowPtr, ct.cum
	}
	sc := w.scratchArena()
	dec, _ := g.(graph.NeighborDecoder)
	expect := expectedVertices(len(seeds), w.Fanouts)
	loc, s := sc.begin(seeds, expect, len(w.Fanouts))
	for _, seed := range seeds {
		loc.add(seed)
	}
	frontierStart := 0
	for li, fanout := range w.Fanouts {
		frontierEnd := loc.numVertices()
		layer := Layer{NumDst: frontierEnd - frontierStart}
		src, dst := sc.layerStart(li)
		for dstLocal := frontierStart; dstLocal < frontierEnd; dstLocal++ {
			v := loc.input[dstLocal]
			adj, _ := sc.adj(g, dec, v)
			d := len(adj)
			if d == 0 {
				continue
			}
			lo := rowPtr[v]
			hi := lo + int64(d)
			if d <= fanout {
				// Degenerate case: take everyone once, like the
				// uniform sampler does.
				for _, nbr := range adj {
					src = append(src, loc.add(nbr))
					dst = append(dst, int32(dstLocal))
				}
				s.SampledEdges += int64(d)
				s.ScannedEdges += int64(d)
				continue
			}
			for i := 0; i < fanout; i++ {
				var idx int
				if fa != nil {
					// Alias method: O(1) per draw.
					idx = drawFlat(fa.prob[lo:hi], fa.alias[lo:hi], r)
				} else {
					// CDF binary search: O(log d) per draw. Inlined
					// (vs sort.Search) to keep the closure out of the
					// per-draw hot path.
					row := cum[lo:hi]
					u := float32(r.Float64()) * row[d-1]
					idx = searchCDF(row, u)
				}
				src = append(src, loc.add(adj[idx]))
				dst = append(dst, int32(dstLocal))
			}
			s.SampledEdges += int64(fanout)
			s.ScannedEdges += int64(fanout) // per-draw cost folded into the rate
		}
		sc.layerEnd(li, src, dst)
		layer.Src, layer.Dst = src, dst
		layer.NumVertices = loc.numVertices()
		s.Layers = append(s.Layers, layer)
		frontierStart = frontierEnd
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
