package experiments

import (
	"fmt"

	"gnnlab/internal/cache"
	"gnnlab/internal/gen"
	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
)

// Drift is the dynamic-graph cache-policy experiment: it grows a Delta over
// the PR dataset through several mutation rounds and tracks, per round, the
// analytic cache hit rate of the Degree and PreSC policies at two re-rank
// cadences — never (the round-0 ranking kept stale) and every round. It
// reproduces the continuous version of the §3/Fig 5(b) failure mode: graph
// drift decorrelates out-degree from what sampling actually touches, so
// degree caching degrades fastest, while PreSC-style hotness — maintained
// incrementally in O(|Δ|) by Hotness.Decay+ApplyDelta, never re-running
// pre-sampling — tracks the shifted footprint.
//
// Each round injects two kinds of drift:
//   - Spam hubs: fresh vertices with top-quartile out-degree whose edges
//     point at random vertices. Nothing ever samples *them* (no in-edges,
//     not training vertices), yet a re-ranked Degree policy caches them —
//     degree and sampling frequency decorrelate.
//   - Training-region growth: new edges from training vertices to
//     previously cold targets. These targets enter the real sampling
//     footprint, so rankings that cannot see them go stale.
func Drift(o Options) (*Table, error) {
	o = o.withDefaults()
	rounds := o.Drift
	if rounds == 0 {
		rounds = 4
	}
	// The drift experiment appends edges through a graph.Delta over the
	// base CSR, so it always loads concrete CSR storage (a packed
	// topology is immutable).
	d, err := o.loadCSR(gen.PresetPR)
	if err != nil {
		return nil, err
	}
	base := d.CSR()
	n0 := base.NumVertices()
	alg := sampling.ForGraphSAGE()
	fanout1 := float64(alg.Fanouts[0])
	batch := o.batchSize()

	const ratio = 0.10
	slots := int(ratio * float64(n0))
	if slots < 8 {
		slots = 8
	}

	// Round-0 rankings over the base graph.
	degreeStale := cache.DegreeHotness(base).RankTop(slots)
	presc, err := cache.Rank(cache.RankSpec{Policy: cache.PolicyPreSC, Graph: base, Alg: alg, TrainSet: d.TrainSet, BatchSize: batch, Seed: o.Seed, Workers: o.Workers, PreSCK: 2})
	if err != nil {
		return nil, err
	}
	prescStale := presc.Hotness.RankTop(slots)
	// base0 keeps the round-0 per-epoch visit rates: the incremental
	// maintainer estimates a new edge (u,w)'s contribution to w as
	// visits(u) * P[w drawn | u expanded] without re-running pre-sampling.
	base0 := append([]float64(nil), presc.Hotness.Score...)
	prescInc := cache.NewHotness(append([]float64(nil), presc.Hotness.Score...))

	// Spam hubs get the out-degree of the ranking's top quartile, +1: high
	// enough that a re-ranked Degree policy always caches them.
	hubDeg := int(base.Degree(degreeStale[slots/4])) + 1
	hubsPerRound := slots / 8
	if hubsPerRound < 4 {
		hubsPerRound = 4
	}
	// Training-region drift is concentrated: each round a band of the
	// coldest round-0 vertices gains several in-edges from training
	// vertices apiece, so the band becomes genuinely hot — a footprint
	// shift a maintained ranking can recover and a stale one cannot.
	bandSize := slots / 4
	if bandSize < 8 {
		bandSize = 8
	}
	edgesPerTarget := 8
	coldOrder := graph.RadixTop(graph.Identity(n0), n0, func(ids []int32, keys []uint64) {
		for i, v := range ids {
			keys[i] = graph.FloatKey(base0[v])
		}
	})

	t := &Table{
		ID:    "drift",
		Title: "PR: cache hit rate under graph drift vs re-rank cadence (α=10%)",
		Header: []string{"Round", "|Δ| edges", "Degree stale", "Degree re-rank",
			"PreSC stale", "PreSC incr"},
		Notes: []string{
			"stale = ranked once at round 0 (cadence ∞); re-rank/incr = every round (cadence 1)",
			"PreSC incr uses Hotness.Decay+ApplyDelta over the round's delta edges — O(|Δ|), no pre-sampling re-run",
			"spam hubs give Degree re-ranking high-degree vertices that sampling never touches (§3/Fig 5(b) decorrelation, continuous form)",
		},
	}

	fp0 := cache.CollectFootprintN(base, alg, d.TrainSet, batch, o.Epochs, o.Seed, o.Workers)
	t.AddRow("0", "0",
		pct(fp0.HitRate(degreeStale, slots)), pct(fp0.HitRate(degreeStale, slots)),
		pct(fp0.HitRate(prescStale, slots)), pct(fp0.HitRate(prescStale, slots)))

	delta := graph.NewDelta(base, false)
	for round := 1; round <= rounds; round++ {
		r := rng.New(o.Seed ^ uint64(round)*0x9E3779B97F4A7C15)
		// Spam hubs: fresh vertices, heavy out-degree, zero in-edges.
		firstHub := delta.AddVertices(hubsPerRound)
		for h := 0; h < hubsPerRound; h++ {
			for e := 0; e < hubDeg; e++ {
				delta.AddEdge(firstHub+int32(h), int32(r.Intn(n0)), 1)
			}
		}
		// Training-region growth: this round's cold band gains in-edges
		// from training vertices, shifting the true footprint. Recorded
		// for the O(|Δ|) incremental update below.
		type edge struct{ u, w int32 }
		grown := make([]edge, 0, bandSize*edgesPerTarget)
		band := coldOrder[(round-1)*bandSize%n0:]
		if len(band) > bandSize {
			band = band[:bandSize]
		}
		for _, w := range band {
			for e := 0; e < edgesPerTarget; e++ {
				u := d.TrainSet[r.Intn(len(d.TrainSet))]
				if delta.AddEdge(u, w, 1) {
					grown = append(grown, edge{u, w})
				}
			}
		}
		snap := delta.Snapshot()

		// Incremental PreSC maintenance: decay the old signal gently, then
		// fold in the round's delta — both independent of |V|. The deltas
		// are append-only, so the old footprint stays mostly valid; the
		// decay only ages it relative to fresh signal rather than
		// forgetting it.
		prescInc.Decay(0.95)
		prescInc.Grow(snap.NumVertices())
		visits := make(map[int32]float64, len(grown))
		for _, e := range grown {
			p := fanout1 / float64(snap.Degree(e.u))
			if p > 1 {
				p = 1
			}
			visits[e.w] += base0[e.u] * p
		}
		dvs := make([]cache.DeltaVisit, 0, len(visits))
		for v, c := range visits {
			dvs = append(dvs, cache.DeltaVisit{Vertex: v, Count: c})
		}
		prescInc.ApplyDelta(dvs)

		degreeRe := cache.DegreeHotness(snap).RankTop(slots)
		prescIncRank := prescInc.RankTop(slots)

		fp := cache.CollectFootprintN(snap, alg, d.TrainSet, batch, o.Epochs,
			o.Seed+uint64(round), o.Workers)
		t.AddRow(fmt.Sprintf("%d", round), fmt.Sprintf("%d", delta.AddedEdges()),
			pct(fp.HitRate(degreeStale, slots)), pct(fp.HitRate(degreeRe, slots)),
			pct(fp.HitRate(prescStale, slots)), pct(fp.HitRate(prescIncRank, slots)))
	}
	return t, nil
}
