package sampling

import (
	"bytes"
	"testing"

	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
)

// hubbyTestGraph builds the packed-differential graph: a light random
// background plus heavy hub rows whose degree clears rowCacheMinDeg, so
// the decoded-row cache engages — including vertices 100 and 100+2048,
// which collide in the direct-mapped cache and force the eviction path.
// weighted=false leaves the weight column off so the differentials cover
// both weight modes (weighted algorithms are skipped on it).
func hubbyTestGraph(seed uint64, n int, weighted bool) *graph.CSR {
	if n <= 100+2048 {
		panic("hubbyTestGraph: n too small for the conflict pair")
	}
	r := rng.New(seed)
	b := graph.NewBuilder(n, weighted)
	for v := 0; v < n; v++ {
		deg := 2 + r.Intn(16)
		if v%97 == 0 || v == 100 || v == 100+2048 {
			deg = 64 + r.Intn(200)
		}
		for i := 0; i < deg; i++ {
			dst := int32(r.Intn(n))
			if dst == int32(v) {
				continue
			}
			var w float32
			if weighted {
				w = float32(r.Float64()) + 0.01
			}
			b.AddEdge(int32(v), dst, w)
		}
	}
	g, err := b.Build(false)
	if err != nil {
		panic(err)
	}
	return g
}

// withHubSeeds appends the conflict-pair hubs to a seed set so every
// Sample call decodes cache-eligible rows.
func withHubSeeds(sd []int32) []int32 { return append(sd, 100, 100+2048) }

// TestSamplePackedMatchesCSR is the compressed-topology differential:
// every algorithm family must produce gob-byte-identical samples whether
// the graph arrives as a CSR or as its Pack'd encoding — at every
// encoder worker count, on weighted and unweighted graphs. The decode
// fast path (AdjInto + in-place Fisher–Yates) may never move an RNG draw
// or change a picked neighbor.
func TestSamplePackedMatchesCSR(t *testing.T) {
	for _, weighted := range []bool{true, false} {
		csr := hubbyTestGraph(3, 2500, weighted)
		n := csr.NumVertices()
		for _, workers := range []int{1, 2, 4} {
			packed := graph.Pack(csr, workers)
			for _, tc := range scratchAlgorithms() {
				if !weighted && (tc.name == "weighted-cdf" || tc.name == "weighted-alias") {
					continue
				}
				t.Run(tc.name, func(t *testing.T) {
					a1, a2 := tc.mk(), tc.mk()
					rSeeds := rng.New(44)
					for call := 0; call < 12; call++ {
						sd := withHubSeeds(seeds(6+call%5, n, rSeeds))
						r1, r2 := rng.New(uint64(300+call)), rng.New(uint64(300+call))
						s1 := a1.Sample(csr, sd, r1)
						s2 := a2.Sample(packed, sd, r2)
						if !bytes.Equal(gobBytes(t, s1), gobBytes(t, s2)) {
							t.Fatalf("weighted=%v workers=%d call %d: packed sample differs from CSR",
								weighted, workers, call)
						}
					}
				})
			}
		}
	}
}

// TestSamplePackedPooledMatchesFresh re-runs the reused-vs-new-arena
// differential over a packed view: arena reuse plus the decode buffer and
// row cache may not change the stream.
func TestSamplePackedPooledMatchesFresh(t *testing.T) {
	packed := graph.Pack(hubbyTestGraph(9, 2500, true), 0)
	n := packed.NumVertices()
	for _, tc := range scratchAlgorithms() {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.mk()
			pooled := ClonePooled(base)
			rF, rP, rSeeds := rng.New(7), rng.New(7), rng.New(8)
			for call := 0; call < 15; call++ {
				sd := withHubSeeds(seeds(6+call%5, n, rSeeds))
				sF := ClonePooled(base).Sample(packed, sd, rF)
				sP := pooled.Sample(packed, sd, rP)
				if !bytes.Equal(gobBytes(t, sF), gobBytes(t, sP)) {
					t.Fatalf("call %d: pooled packed sample differs from fresh", call)
				}
			}
		})
	}
}

// TestSamplePackedZeroAllocs extends the zero-alloc guarantee to the
// compressed topology: steady-state pooled sampling through a
// *graph.Packed (varint decode into the arena's adjBuf, decoded-row
// cache admissions, shared lazy weight tables) must not allocate for any
// of the 8 variants.
func TestSamplePackedZeroAllocs(t *testing.T) {
	packed := graph.Pack(hubbyTestGraph(13, 2500, true), 0)
	n := packed.NumVertices()
	for _, tc := range scratchAlgorithms() {
		t.Run(tc.name, func(t *testing.T) {
			alg := ClonePooled(tc.mk())
			r := rng.New(5)
			rSeeds := rng.New(6)
			sd := withHubSeeds(seeds(8, n, rSeeds))
			for i := 0; i < 50; i++ {
				alg.Sample(packed, sd, r)
			}
			saved := *r
			avg := testing.AllocsPerRun(20, func() {
				*r = saved
				alg.Sample(packed, sd, r)
			})
			if avg != 0 {
				t.Errorf("steady-state Sample over packed allocates %.1f/op, want 0", avg)
			}
		})
	}
}

// TestSamplePackedRowCache pins the decoded-row cache's observable
// behavior: hub rows hit after their first decode, the conflict pair
// (vertices 100 and 100+2048 share a direct-mapped slot) keeps evicting
// without changing results, and rebinding the arena to a different
// packed View resets the cache instead of serving stale rows.
func TestSamplePackedRowCache(t *testing.T) {
	csr1 := hubbyTestGraph(21, 2500, true)
	csr2 := hubbyTestGraph(22, 2500, true)
	p1, p2 := graph.Pack(csr1, 0), graph.Pack(csr2, 0)

	mk := func() Algorithm { return NewKHop([]int{6, 4}, FisherYates) }
	pooled := ClonePooled(mk())
	ref := ClonePooled(mk())
	rSeeds := rng.New(78)
	// Alternate the same pooled instance between two packed graphs while
	// a reference instance replays the same per-call RNG seed over the
	// matching CSR; every switch crosses the rc.reset path, every call
	// re-decodes or hits.
	for call := 0; call < 20; call++ {
		sd := withHubSeeds(seeds(8, 2500, rSeeds))
		rP, rR := rng.New(uint64(500+call)), rng.New(uint64(500+call))
		var got, want *Sample
		if call%2 == 0 {
			got, want = pooled.Sample(p1, sd, rP), ref.Sample(csr1, sd, rR)
		} else {
			got, want = pooled.Sample(p2, sd, rP), ref.Sample(csr2, sd, rR)
		}
		if !bytes.Equal(gobBytes(t, got), gobBytes(t, want)) {
			t.Fatalf("call %d: cached/reset sample differs from CSR reference", call)
		}
	}
	// Alternating views invalidate the cache every call, so all hub
	// decodes are misses here.
	st, ok := ScratchStatsOf(pooled)
	if !ok {
		t.Fatal("pooled KHop has no scratch stats")
	}
	if st.RowCacheMisses == 0 {
		t.Error("hub rows never admitted to the row cache")
	}

	// Steady state on one view: repeated non-conflicting hub seeds (the
	// conflict pair alone would evict forever) must hit.
	single := ClonePooled(mk())
	rs := rng.New(79)
	sd := []int32{0, 97, 194, 291}
	for call := 0; call < 4; call++ {
		single.Sample(p1, sd, rs)
	}
	st, _ = ScratchStatsOf(single)
	if st.RowCacheHits == 0 {
		t.Error("repeated hub seeds never hit the row cache")
	}
}
