package sampling

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
)

// scratchAlgorithms enumerates every built-in algorithm for the arena
// equivalence and allocation tests.
func scratchAlgorithms() []struct {
	name string
	mk   func() Algorithm
} {
	return []struct {
		name string
		mk   func() Algorithm
	}{
		{"khop-fisher-yates", func() Algorithm { return NewKHop([]int{5, 3}, FisherYates) }},
		{"khop-reservoir", func() Algorithm { return NewKHop([]int{5, 3}, Reservoir) }},
		{"weighted-cdf", func() Algorithm { return NewWeightedKHopMethod([]int{5, 3}, WeightedCDF) }},
		{"weighted-alias", func() Algorithm { return NewWeightedKHopMethod([]int{5, 3}, WeightedAlias) }},
		{"random-walk", func() Algorithm { return NewRandomWalk(2, 4, 3, 5) }},
		{"cluster-gcn", func() Algorithm { return NewClusterGCN(24, 11) }},
		{"saint-node", func() Algorithm { return NewSAINTNode(60) }},
		{"saint-edge", func() Algorithm { return NewSAINTEdge(80) }},
	}
}

// gobBytes serializes a sample; byte-level comparison catches anything a
// DeepEqual on identical aliased buffers could in principle miss.
func gobBytes(t *testing.T, s *Sample) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatalf("gob: %v", err)
	}
	return buf.Bytes()
}

// TestPooledMatchesFresh is the arena equivalence property: one instance
// whose arena is reused across calls must produce a bit-identical sample
// stream to a new arena per call (a fresh ClonePooled each time) driven
// by the same RNG stream — buffer reuse may never change results.
func TestPooledMatchesFresh(t *testing.T) {
	g := testGraph(1, 400, 8, 2)
	for _, tc := range scratchAlgorithms() {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.mk()
			pooled := ClonePooled(base)
			rF, rP, rSeeds := rng.New(7), rng.New(7), rng.New(8)
			for call := 0; call < 25; call++ {
				sd := seeds(6+call%5, 400, rSeeds)
				sF := ClonePooled(base).Sample(g, sd, rF)
				sP := pooled.Sample(g, sd, rP)
				if err := sP.Validate(); err != nil {
					t.Fatalf("call %d: pooled sample invalid: %v", call, err)
				}
				// Compare before the next call: the pooled sample is only
				// valid until then.
				if !reflect.DeepEqual(sF, sP) {
					t.Fatalf("call %d: pooled sample differs from fresh", call)
				}
				if !bytes.Equal(gobBytes(t, sF), gobBytes(t, sP)) {
					t.Fatalf("call %d: serialized samples differ", call)
				}
			}
		})
	}
}

// TestSampleClone: a Clone serializes to the source's bytes, shares no
// backing array with it (scribbling over one clone leaves the source
// intact), and survives the source arena's next Sample call intact.
func TestSampleClone(t *testing.T) {
	g := testGraph(6, 400, 8, 2)
	for _, tc := range scratchAlgorithms() {
		t.Run(tc.name, func(t *testing.T) {
			alg := ClonePooled(tc.mk())
			r := rng.New(21)
			src := alg.Sample(g, seeds(8, 400, r), r)
			src.CachedMask = make([]bool, len(src.Input))
			for i := range src.CachedMask {
				src.CachedMask[i] = i%3 == 0
			}
			want := gobBytes(t, src)
			c := src.Clone()
			if !bytes.Equal(gobBytes(t, c), want) {
				t.Fatal("clone serializes differently from its source")
			}
			scribble := src.Clone()
			for _, xs := range [][]int32{scribble.Seeds, scribble.Input} {
				for i := range xs {
					xs[i] = -1
				}
			}
			for i := range scribble.Layers {
				scribble.Layers[i] = Layer{Src: scribble.Layers[i].Src, Dst: scribble.Layers[i].Dst}
				for j := range scribble.Layers[i].Src {
					scribble.Layers[i].Src[j], scribble.Layers[i].Dst[j] = -1, -1
				}
			}
			for i := range scribble.CachedMask {
				scribble.CachedMask[i] = !scribble.CachedMask[i]
			}
			if !bytes.Equal(gobBytes(t, src), want) {
				t.Fatal("writing to a clone changed its source")
			}
			for i := 0; i < 3; i++ {
				alg.Sample(g, seeds(8, 400, r), r)
			}
			if !bytes.Equal(gobBytes(t, c), want) {
				t.Fatal("clone changed after the source arena's next Sample call")
			}
		})
	}
}

// TestSampleSteadyStateZeroAllocs pins the zero-allocation guarantee: after
// warm-up, a pooled clone's Sample calls perform no heap allocations.
func TestSampleSteadyStateZeroAllocs(t *testing.T) {
	g := testGraph(2, 400, 8, 2)
	for _, tc := range scratchAlgorithms() {
		t.Run(tc.name, func(t *testing.T) {
			alg := ClonePooled(tc.mk())
			r := rng.New(5)
			sd := seeds(8, 400, r)
			for i := 0; i < 50; i++ { // warm up: tables build, buffers grow
				alg.Sample(g, sd, r)
			}
			// Replay the identical RNG state each run so the measured calls
			// are exactly the steady state the warm-up reached.
			saved := *r
			allocs := testing.AllocsPerRun(20, func() {
				*r = saved
				alg.Sample(g, sd, r)
			})
			if allocs != 0 {
				t.Errorf("steady-state Sample allocates %.1f objects/call, want 0", allocs)
			}
		})
	}
}

// TestScratchStats checks the arena counters the measurement engine
// exports: reuse counts rise with calls while growth stabilizes.
func TestScratchStats(t *testing.T) {
	g := testGraph(3, 300, 6, 1)
	alg := ClonePooled(NewKHop([]int{4, 4}, FisherYates))
	r := rng.New(9)
	sd := seeds(8, 300, r)
	const calls = 40
	for i := 0; i < calls; i++ {
		alg.Sample(g, sd, r)
	}
	st, ok := ScratchStatsOf(alg)
	if !ok {
		t.Fatal("built-in algorithm reports no scratch stats")
	}
	if st.Samples != calls {
		t.Errorf("Samples = %d, want %d", st.Samples, calls)
	}
	if st.Reuses != calls-1 {
		t.Errorf("Reuses = %d, want %d", st.Reuses, calls-1)
	}
	grown := st.Grows
	for i := 0; i < calls; i++ {
		alg.Sample(g, sd, r)
	}
	st, _ = ScratchStatsOf(alg)
	if st.Grows != grown {
		t.Errorf("Grows rose from %d to %d in steady state", grown, st.Grows)
	}

	if _, ok := ScratchStatsOf(stubAlgorithm{}); ok {
		t.Error("custom algorithm without arena reports scratch stats")
	}
}

type stubAlgorithm struct{}

func (stubAlgorithm) Name() string { return "stub" }
func (stubAlgorithm) NumHops() int { return 1 }
func (stubAlgorithm) Sample(g graph.View, seeds []int32, r *rng.Rand) *Sample {
	return &Sample{Seeds: seeds, Input: seeds}
}

// TestClonePooledIndependence: two pooled clones of the same base must not
// share buffers.
func TestClonePooledIndependence(t *testing.T) {
	g := testGraph(4, 300, 6, 1)
	base := NewKHop([]int{4}, FisherYates)
	a, b := ClonePooled(base), ClonePooled(base)
	r1, r2 := rng.New(1), rng.New(1)
	sd := seeds(8, 300, rng.New(2))
	sa := a.Sample(g, sd, r1)
	saCopy := gobBytes(t, sa)
	// Interleaved calls on b must not disturb a's outstanding sample.
	for i := 0; i < 5; i++ {
		b.Sample(g, sd, r2)
	}
	if !bytes.Equal(saCopy, gobBytes(t, sa)) {
		t.Fatal("sibling pooled clone clobbered an outstanding sample")
	}
}

// TestLocalizerLookup checks the non-inserting probe used by the induced-
// subgraph pass.
func TestLocalizerLookup(t *testing.T) {
	var m localizer
	m.reset(4)
	ids := []int32{7, 3, 7, 100, 3, 55}
	for _, v := range ids {
		m.add(v)
	}
	want := map[int32]int32{7: 0, 3: 1, 100: 2, 55: 3}
	for g, local := range want {
		got, ok := m.lookup(g)
		if !ok || got != local {
			t.Errorf("lookup(%d) = (%d, %v), want (%d, true)", g, got, ok, local)
		}
	}
	if _, ok := m.lookup(999); ok {
		t.Error("lookup of absent vertex reported present")
	}
	// After a stamped reset the old entries must be gone.
	m.reset(4)
	if _, ok := m.lookup(7); ok {
		t.Error("lookup found an entry from a previous generation")
	}
}

// TestExpectedVerticesOverflow: the per-layer product must saturate at the
// cap instead of overflowing int.
func TestExpectedVerticesOverflow(t *testing.T) {
	cases := []struct {
		seeds   int
		fanouts []int
		want    int
	}{
		{10, []int{2}, 30},
		{1, []int{2, 3}, 1 + 2 + 6},
		{1000000, []int{1000000, 1000000, 1000000, 1000000}, maxExpectedVertices},
		{1 << 30, []int{1 << 30}, maxExpectedVertices},
		{3, []int{}, 3},
	}
	for _, c := range cases {
		got := expectedVertices(c.seeds, c.fanouts)
		if got != c.want {
			t.Errorf("expectedVertices(%d, %v) = %d, want %d", c.seeds, c.fanouts, got, c.want)
		}
		if got < 0 || got > maxExpectedVertices {
			t.Errorf("expectedVertices(%d, %v) = %d out of [0, cap]", c.seeds, c.fanouts, got)
		}
	}
}

// TestValidateCachedMaskLength: Validate must reject a mask that does not
// cover the input set exactly.
func TestValidateCachedMaskLength(t *testing.T) {
	g := testGraph(5, 200, 6, 1)
	r := rng.New(6)
	s := NewKHop([]int{3}, FisherYates).Sample(g, seeds(5, 200, r), r)
	if err := s.Validate(); err != nil {
		t.Fatalf("baseline sample invalid: %v", err)
	}
	s.CachedMask = make([]bool, len(s.Input))
	if err := s.Validate(); err != nil {
		t.Errorf("full-length mask rejected: %v", err)
	}
	s.CachedMask = make([]bool, len(s.Input)+1)
	if err := s.Validate(); err == nil {
		t.Error("overlong CachedMask accepted")
	}
	s.CachedMask = make([]bool, len(s.Input)-1)
	if err := s.Validate(); err == nil {
		t.Error("short CachedMask accepted")
	}
}

// BenchmarkSample covers every algorithm on a warm arena; -benchmem
// shows the zero-allocation steady state.
func BenchmarkSample(b *testing.B) {
	g := testGraph(1, 20000, 12, 2)
	for _, tc := range scratchAlgorithms() {
		b.Run(tc.name, func(b *testing.B) {
			alg := tc.mk()
			r := rng.New(3)
			sd := seeds(64, 20000, r)
			alg.Sample(g, sd, r) // build lazy tables outside the loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				alg.Sample(g, sd, r)
			}
		})
	}
}
