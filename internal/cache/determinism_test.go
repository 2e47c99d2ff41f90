package cache

import (
	"reflect"
	"runtime"
	"testing"

	"gnnlab/internal/sampling"
)

// The replay engine's contract: PreSCN, CollectFootprintN and
// CollectEpochFootprintsN are pure functions of (graph, alg, trainSet,
// batchSize, epochs, seed) — the workers argument only changes wall-clock
// time. Verified for every algorithm family the workloads use.

func replayWorkerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	return counts
}

func replayAlgs() []struct {
	name string
	alg  sampling.Algorithm
} {
	return []struct {
		name string
		alg  sampling.Algorithm
	}{
		{"khop", sampling.ForGCN()},
		{"weighted", sampling.ForGCNWeighted()},
		{"walk", sampling.ForPinSAGE()},
	}
}

func TestPreSCDeterministicAcrossWorkers(t *testing.T) {
	g := skewedGraph(7, 600, 4000)
	ts := trainSet(600, 120, 8)
	for _, a := range replayAlgs() {
		base := PreSCN(g, a.alg, ts, 16, 2, 42, 1)
		for _, w := range replayWorkerCounts()[1:] {
			got := PreSCN(g, a.alg, ts, 16, 2, 42, w)
			if !reflect.DeepEqual(base, got) {
				t.Errorf("%s: PreSC result differs between workers=1 and %d", a.name, w)
			}
		}
		// The legacy entry point (workers = GOMAXPROCS) must agree too.
		if legacy := PreSC(g, a.alg, ts, 16, 2, 42); !reflect.DeepEqual(base, legacy) {
			t.Errorf("%s: PreSC disagrees with PreSCN(workers=1)", a.name)
		}
	}
}

func TestCollectFootprintDeterministicAcrossWorkers(t *testing.T) {
	g := skewedGraph(9, 600, 4000)
	ts := trainSet(600, 120, 10)
	for _, a := range replayAlgs() {
		base := CollectFootprintN(g, a.alg, ts, 16, 2, 42, 1)
		for _, w := range replayWorkerCounts()[1:] {
			got := CollectFootprintN(g, a.alg, ts, 16, 2, 42, w)
			if !reflect.DeepEqual(base, got) {
				t.Errorf("%s: footprint differs between workers=1 and %d", a.name, w)
			}
		}
		if def := CollectFootprintN(g, a.alg, ts, 16, 2, 42, 0); !reflect.DeepEqual(base, def) {
			t.Errorf("%s: CollectFootprintN(workers=0) disagrees with workers=1", a.name)
		}
	}
}

func TestCollectEpochFootprintsDeterministicAcrossWorkers(t *testing.T) {
	g := skewedGraph(11, 600, 4000)
	ts := trainSet(600, 120, 12)
	for _, a := range replayAlgs() {
		base := CollectEpochFootprintsN(g, a.alg, ts, 16, 3, 42, 1)
		for _, w := range replayWorkerCounts()[1:] {
			got := CollectEpochFootprintsN(g, a.alg, ts, 16, 3, 42, w)
			if !reflect.DeepEqual(base, got) {
				t.Errorf("%s: epoch footprints differ between workers=1 and %d", a.name, w)
			}
		}
	}
}

// The Optimal oracle contract: with the same seed, the footprint replay
// must reproduce a measured run exactly no matter how either side's
// worker pool is sized (§3 footnote 4).
func TestFootprintRankingStableAcrossWorkers(t *testing.T) {
	g := skewedGraph(13, 600, 4000)
	ts := trainSet(600, 120, 14)
	base := CollectFootprintN(g, sampling.ForGCN(), ts, 16, 2, 7, 1).OptimalHotness().Rank()
	for _, w := range replayWorkerCounts()[1:] {
		got := CollectFootprintN(g, sampling.ForGCN(), ts, 16, 2, 7, w).OptimalHotness().Rank()
		if !reflect.DeepEqual(base, got) {
			t.Errorf("oracle ranking differs between workers=1 and %d", w)
		}
	}
}
