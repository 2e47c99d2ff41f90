package sampling

import (
	"fmt"

	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
)

// NeighborMethod selects how k uniform neighbors are drawn from an
// adjacency list. The methods are distribution-equivalent but have very
// different cost profiles, which §7.3 exploits to explain DGL's slower
// GPU sampler.
type NeighborMethod int

const (
	// FisherYates draws k without replacement via a partial Fisher–Yates
	// shuffle: O(k) work per vertex regardless of degree. This is the
	// GPU-friendly variant GNNLab and T_SOTA implement.
	FisherYates NeighborMethod = iota
	// Reservoir draws k without replacement via reservoir sampling,
	// scanning the entire adjacency list: O(degree) work per vertex, so
	// the cost is skewed by high-degree vertices (the DGL baseline).
	Reservoir
)

// String returns the method name.
func (m NeighborMethod) String() string {
	switch m {
	case FisherYates:
		return "fisher-yates"
	case Reservoir:
		return "reservoir"
	default:
		return fmt.Sprintf("NeighborMethod(%d)", int(m))
	}
}

// KHop is k-hop random neighborhood sampling (GraphSAGE [25], GCN usage):
// layer i samples Fanouts[i] uniform neighbors of each frontier vertex.
type KHop struct {
	Fanouts []int
	Method  NeighborMethod

	// sc is the reusable arena behind Sample; a KHop value is therefore
	// not safe for concurrent use — clone per executor with ClonePooled.
	sc *scratch
}

// NewKHop returns a k-hop sampler with the given per-layer fanouts.
func NewKHop(fanouts []int, method NeighborMethod) *KHop {
	if len(fanouts) == 0 {
		panic("sampling: NewKHop with no fanouts")
	}
	for _, f := range fanouts {
		if f <= 0 {
			panic("sampling: NewKHop with non-positive fanout")
		}
	}
	return &KHop{Fanouts: append([]int(nil), fanouts...), Method: method}
}

// Clone returns an independent sampler sharing configuration but not
// scratch state.
func (k *KHop) Clone() Algorithm { return NewKHop(k.Fanouts, k.Method) }

// scratchArena implements scratchOwner, creating the arena on first use.
func (k *KHop) scratchArena() *scratch {
	if k.sc == nil {
		k.sc = &scratch{}
	}
	return k.sc
}

// Name implements Algorithm.
func (k *KHop) Name() string {
	return fmt.Sprintf("%d-hop-random(%s)", len(k.Fanouts), k.Method)
}

// NumHops implements Algorithm.
func (k *KHop) NumHops() int { return len(k.Fanouts) }

// Sample implements Algorithm.
func (k *KHop) Sample(g graph.View, seeds []int32, r *rng.Rand) *Sample {
	sc := k.scratchArena()
	dec, _ := g.(graph.NeighborDecoder)
	expect := expectedVertices(len(seeds), k.Fanouts)
	loc, s := sc.begin(seeds, expect, len(k.Fanouts))
	for _, fanout := range k.Fanouts {
		for v, end := sc.frontier(); v < end; v++ {
			adj, mutable := sc.adj(g, dec, loc.input[v])
			picked, scanned := k.pickUniform(sc, adj, mutable, fanout, r)
			s.SampledEdges += int64(len(picked))
			s.ScannedEdges += scanned
			sc.row(picked)
		}
		sc.layer()
	}
	return sc.finish(s)
}

// pickUniform returns up to fanout uniform neighbors without replacement
// and the number of adjacency entries scanned (the cost basis). mutable
// means adj is arena-owned (a decoded row): Fisher–Yates then shuffles
// it in place, skipping the pick-buffer copy — the draw sequence and the
// picked prefix are identical either way.
func (k *KHop) pickUniform(sc *scratch, adj []int32, mutable bool, fanout int, r *rng.Rand) ([]int32, int64) {
	d := len(adj)
	if d == 0 {
		return nil, 0
	}
	if d <= fanout {
		return adj, int64(d)
	}
	switch k.Method {
	case Reservoir:
		res := sc.pickBuf(fanout)
		copy(res, adj[:fanout])
		for i := fanout; i < d; i++ {
			j := r.Intn(i + 1)
			if j < fanout {
				res[j] = adj[i]
			}
		}
		return res, int64(d) // reservoir scans the full list
	default: // FisherYates
		buf := adj
		if !mutable {
			buf = sc.pickBuf(d)
			copy(buf, adj)
		}
		for i := 0; i < fanout; i++ {
			j := i + r.Intn(d-i)
			buf[i], buf[j] = buf[j], buf[i]
		}
		return buf[:fanout], int64(fanout)
	}
}

// maxExpectedVertices caps the localizer sizing hint: beyond this the
// dedup table would outweigh any frontier worth pre-sizing for.
const maxExpectedVertices = 1 << 22

// expectedVertices estimates the unique-vertex count for sizing the
// localizer: the full fanout tree is an upper bound, dedup brings it
// down. The per-layer product is bounds-checked before multiplying so
// large seed sets times deep fanouts cannot overflow int — once a layer
// would exceed the cap the total would too, so returning the cap early
// is exact.
func expectedVertices(seeds int, fanouts []int) int {
	total := seeds
	layer := seeds
	for _, f := range fanouts {
		if f > 0 && layer > maxExpectedVertices/f {
			return maxExpectedVertices
		}
		layer *= f
		total += layer
		if total > maxExpectedVertices {
			return maxExpectedVertices
		}
	}
	return total
}
