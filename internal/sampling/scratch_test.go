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
		{"weighted-cdf", func() Algorithm { return NewWeightedKHop([]int{5, 3}) }},
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
				if err := validate(sP, g); err != nil {
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
			want := gobBytes(t, src)
			c := src.Clone()
			if !bytes.Equal(gobBytes(t, c), want) {
				t.Fatal("clone serializes differently from its source")
			}
			scribble := src.Clone()
			for _, xs := range [][]int32{scribble.Seeds, scribble.Input, scribble.AdjStart, scribble.AdjNbr} {
				for i := range xs {
					xs[i] = -1
				}
			}
			for i := range scribble.Layers {
				scribble.Layers[i] = Layer{}
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

// TestValidatorRejectsBrokenCSR: each corruption of a valid 2-hop
// sample's CSR or layer shapes must fail the Validator.
func TestValidatorRejectsBrokenCSR(t *testing.T) {
	g := testGraph(9, 300, 6, 2)
	r := rng.New(10)
	base := NewKHop([]int{3, 2}, FisherYates).Sample(g, seeds(4, 300, r), r).Clone()
	if err := validate(base, g); err != nil {
		t.Fatalf("baseline sample invalid: %v", err)
	}
	n := len(base.Input)
	targets := base.Layers[0].NumDst + base.Layers[1].NumDst
	if base.AdjStart[1] == 0 || base.Layers[0].NumVertices >= n || targets >= n {
		t.Fatal("baseline too small to corrupt")
	}
	cases := map[string]func(s *Sample){
		"row starts decrease": func(s *Sample) { s.AdjStart[1] = s.AdjStart[targets] },
		"CSR short a row":     func(s *Sample) { s.AdjStart = s.AdjStart[:n] },
		"seed neighbor from hop 2": func(s *Sample) {
			s.AdjNbr[0] = int32(n - 1) // first known after hop 1, so past the seeds' bound
		},
		"leaf with a neighbor": func(s *Sample) {
			for v := targets; v < n; v++ {
				s.AdjStart[v] = int32(len(s.AdjNbr) - 1)
			}
		},
		"layer knows fewer":    func(s *Sample) { s.Layers[1].NumVertices = s.Layers[0].NumVertices - 1 },
		"layers short":         func(s *Sample) { s.Layers[1].NumVertices = n - 1 },
		"targets past known":   func(s *Sample) { s.Layers[0].NumDst = s.Layers[0].NumVertices + 1 },
		"vertex outside graph": func(s *Sample) { s.Input[n-1] = int32(g.NumVertices()) },
	}
	for name, corrupt := range cases {
		s := base.Clone()
		corrupt(s)
		if err := validate(s, g); err == nil {
			t.Errorf("%s: accepted", name)
		}
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
