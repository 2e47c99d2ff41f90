package sampling

import (
	"fmt"

	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
)

// RandomWalk is PinSAGE-style neighborhood selection [58]: for each frontier
// vertex, run NumPaths random walks of WalkLength steps and take the
// NumNeighbors most-visited vertices as its sampled neighborhood. Layers
// repeats the construction to stack multiple GNN layers.
type RandomWalk struct {
	Layers       int
	NumPaths     int
	WalkLength   int
	NumNeighbors int

	// fanouts caches Layers copies of NumNeighbors for localizer sizing,
	// so Sample does not rebuild it per call. Nil when the struct was
	// built without the constructor; only a sizing hint either way.
	fanouts []int

	// sc is the reusable arena behind Sample (visit counter, top-k
	// selection, sample buffers); clone per executor.
	sc *scratch
}

// NewRandomWalk returns a PinSAGE-style sampler. The paper's PinSAGE setup
// is NewRandomWalk(3, 4, 3, 5): 3 layers, each selecting 5 neighbors from
// 4 paths of length 3.
func NewRandomWalk(layers, numPaths, walkLength, numNeighbors int) *RandomWalk {
	if layers <= 0 || numPaths <= 0 || walkLength <= 0 || numNeighbors <= 0 {
		panic("sampling: NewRandomWalk with non-positive parameter")
	}
	fanouts := make([]int, layers)
	for i := range fanouts {
		fanouts[i] = numNeighbors
	}
	return &RandomWalk{
		Layers:       layers,
		NumPaths:     numPaths,
		WalkLength:   walkLength,
		NumNeighbors: numNeighbors,
		fanouts:      fanouts,
	}
}

// Clone returns an independent sampler sharing configuration but not
// scratch state.
func (w *RandomWalk) Clone() Algorithm {
	c := *w
	c.sc = nil
	return &c
}

// scratchArena implements scratchOwner, creating the arena on first use.
func (w *RandomWalk) scratchArena() *scratch {
	if w.sc == nil {
		w.sc = &scratch{}
	}
	return w.sc
}

// Name implements Algorithm.
func (w *RandomWalk) Name() string {
	return fmt.Sprintf("random-walks(%dx%d)", w.NumPaths, w.WalkLength)
}

// NumHops implements Algorithm.
func (w *RandomWalk) NumHops() int { return w.Layers }

// Sample implements Algorithm.
func (w *RandomWalk) Sample(g graph.View, seeds []int32, r *rng.Rand) *Sample {
	sc := w.scratchArena()
	dec, _ := g.(graph.NeighborDecoder)
	expect := expectedVertices(len(seeds), w.fanouts)
	loc, s := sc.begin(seeds, expect, w.Layers)
	for range w.Layers {
		for local, end := sc.frontier(); local < end; local++ {
			v := loc.input[local]
			sc.stats.Grows += sc.visits.reset(w.NumPaths * w.WalkLength)
			for p := 0; p < w.NumPaths; p++ {
				cur := v
				for step := 0; step < w.WalkLength; step++ {
					adj, _ := sc.adj(g, dec, cur)
					if len(adj) == 0 {
						break
					}
					cur = adj[r.Intn(len(adj))]
					sc.visits.inc(cur)
					s.Walks++
					s.ScannedEdges++
				}
			}
			top := sc.topVisited(w.NumNeighbors, v)
			s.SampledEdges += int64(len(top))
			sc.row(top)
		}
		sc.layer()
	}
	return sc.finish(s)
}
