package cache

import (
	"reflect"
	"runtime"
	"testing"

	"gnnlab/internal/sampling"
)

// The replay engine's contract: PreSC, CollectFootprint and
// CollectEpochFootprints are pure functions of (graph, alg, trainSet,
// batchSize, epochs, seed) — GOMAXPROCS only changes wall-clock time.
// Verified for every algorithm family the workloads use.

// replayProcs is the serial width and two wider ones, whatever this
// machine's core count.
func replayProcs() []int {
	return []int{1, 2, max(4, runtime.NumCPU())}
}

// setProcs runs the rest of the test at GOMAXPROCS procs; the value the
// test started with comes back at cleanup.
func setProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// sameAcrossProcs runs run at the test's starting GOMAXPROCS, then at
// each width of replayProcs, and reports every result that differs from
// the serial one. It leaves GOMAXPROCS changed until the test ends, so a
// test calls it once, or once per subtest.
func sameAcrossProcs[T any](t *testing.T, what string, run func() T) {
	t.Helper()
	def := run()
	setProcs(t, 1)
	base := run()
	for _, p := range replayProcs()[1:] {
		setProcs(t, p)
		if got := run(); !reflect.DeepEqual(base, got) {
			t.Errorf("%s differs between GOMAXPROCS 1 and %d", what, p)
		}
	}
	if !reflect.DeepEqual(base, def) {
		t.Errorf("%s at the starting GOMAXPROCS differs from GOMAXPROCS 1", what)
	}
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
		t.Run(a.name, func(t *testing.T) {
			sameAcrossProcs(t, "PreSC result", func() PreSCResult { return PreSC(g, a.alg, ts, 16, 2, 42) })
		})
	}
}

func TestCollectFootprintDeterministicAcrossWorkers(t *testing.T) {
	g := skewedGraph(9, 600, 4000)
	ts := trainSet(600, 120, 10)
	for _, a := range replayAlgs() {
		t.Run(a.name, func(t *testing.T) {
			sameAcrossProcs(t, "footprint", func() *Footprint { return CollectFootprint(g, a.alg, ts, 16, 2, 42) })
		})
	}
}

func TestCollectEpochFootprintsDeterministicAcrossWorkers(t *testing.T) {
	g := skewedGraph(11, 600, 4000)
	ts := trainSet(600, 120, 12)
	for _, a := range replayAlgs() {
		t.Run(a.name, func(t *testing.T) {
			sameAcrossProcs(t, "epoch footprints", func() []EpochFootprint { return CollectEpochFootprints(g, a.alg, ts, 16, 3, 42) })
		})
	}
}

// The Optimal oracle contract: with the same seed, the footprint replay
// must reproduce a measured run exactly no matter how wide either side
// fans out (§3 footnote 4).
func TestFootprintRankingStableAcrossWorkers(t *testing.T) {
	g := skewedGraph(13, 600, 4000)
	ts := trainSet(600, 120, 14)
	sameAcrossProcs(t, "oracle ranking", func() []int32 {
		return CollectFootprint(g, sampling.ForGCN(), ts, 16, 2, 7).OptimalHotness().Rank()
	})
}
