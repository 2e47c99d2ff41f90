package graph

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"gnnlab/internal/par"
	"gnnlab/internal/rng"
)

// diamond returns a small weighted test graph:
//
//	0 -> 1 (w 1), 0 -> 2 (w 2), 1 -> 3 (w 3), 2 -> 3 (w 4), 3 -> 0 (w 5)
func diamond(t *testing.T) *CSR {
	t.Helper()
	b := NewBuilder(4, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 2)
	b.AddEdge(1, 3, 3)
	b.AddEdge(2, 3, 4)
	b.AddEdge(3, 0, 5)
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := diamond(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.NumVertices(); got != 4 {
		t.Errorf("NumVertices = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 5 {
		t.Errorf("NumEdges = %d, want 5", got)
	}
	if got := g.Degree(0); got != 2 {
		t.Errorf("Degree(0) = %d, want 2", got)
	}
	adj := g.Adj(0)
	if len(adj) != 2 || adj[0] != 1 || adj[1] != 2 {
		t.Errorf("Adj(0) = %v, want [1 2]", adj)
	}
	w := g.AdjWeights(2)
	if len(w) != 1 || w[0] != 4 {
		t.Errorf("AdjWeights(2) = %v, want [4]", w)
	}
	if !g.Weighted() {
		t.Error("Weighted() = false for weighted graph")
	}
}

func TestBuilderSortsUnorderedInput(t *testing.T) {
	b := NewBuilder(3, false)
	b.AddEdge(2, 0, 0)
	b.AddEdge(0, 2, 0)
	b.AddEdge(0, 1, 0)
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	if adj := g.Adj(0); len(adj) != 2 || adj[0] != 1 || adj[1] != 2 {
		t.Errorf("Adj(0) = %v, want [1 2]", adj)
	}
	if adj := g.Adj(2); len(adj) != 1 || adj[0] != 0 {
		t.Errorf("Adj(2) = %v, want [0]", adj)
	}
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(2, true)
	b.AddEdge(0, 1, 7)
	b.AddEdge(0, 1, 9)
	b.AddEdge(1, 0, 1)
	g, err := b.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("dedup kept %d edges, want 2", g.NumEdges())
	}
	if w := g.AdjWeights(0); w[0] != 7 {
		t.Errorf("dedup kept weight %v, want first weight 7", w[0])
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2, false)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddEdge accepted out-of-range destination")
			}
		}()
		b.AddEdge(0, 5, 0)
	}()
	// Build still validates edges injected behind AddEdge's back.
	b.edges = append(b.edges, Edge{Src: 0, Dst: 5})
	if _, err := b.Build(false); err == nil {
		t.Error("Build accepted out-of-range edge")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := map[string]func(*CSR){
		"rowptr not starting at zero": func(g *CSR) { g.RowPtr[0] = 1 },
		"rowptr not monotone":         func(g *CSR) { g.RowPtr[1] = 99 },
		"colidx out of range":         func(g *CSR) { g.ColIdx[0] = 77 },
		"negative colidx":             func(g *CSR) { g.ColIdx[0] = -1 },
		"weight length mismatch":      func(g *CSR) { g.Weights = g.Weights[:2] },
		"negative weight":             func(g *CSR) { g.Weights[0] = -3 },
	}
	for name, corrupt := range cases {
		g := diamond(t)
		corrupt(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupted graph", name)
		}
	}
}

func TestDegreesSumToEdges(t *testing.T) {
	g := diamond(t)
	var outSum, inSum int64
	for _, d := range OutDegrees(g) {
		outSum += d
	}
	for _, d := range InDegrees(g) {
		inSum += d
	}
	if outSum != g.NumEdges() || inSum != g.NumEdges() {
		t.Errorf("degree sums out=%d in=%d, want %d", outSum, inSum, g.NumEdges())
	}
}

// randomGraph builds a random small graph for property tests.
func randomGraph(seed uint64, n, e int, weighted bool) *CSR {
	r := rng.New(seed)
	b := NewBuilder(n, weighted)
	for i := 0; i < e; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)), float32(r.Float64())+0.01)
	}
	g, err := b.Build(false)
	if err != nil {
		panic(err)
	}
	return g
}

func TestTopologyBytes(t *testing.T) {
	g := diamond(t)
	want := int64(5*8 + 5*4 + 5*4) // rowptr (n+1)*8 + colidx e*4 + weights e*4
	if got := g.TopologyBytes(); got != want {
		t.Errorf("TopologyBytes = %d, want %d", got, want)
	}
	if got := g.TopologyBytesUnweighted(); got != want-5*4 {
		t.Errorf("TopologyBytesUnweighted = %d, want %d", got, want-5*4)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw, eRaw uint8, weighted bool) bool {
		n := int(nRaw%30) + 2
		e := int(eRaw) + 1
		g := randomGraph(seed, n, e, weighted)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
			return false
		}
		for i := range g.ColIdx {
			if got.ColIdx[i] != g.ColIdx[i] {
				return false
			}
		}
		if weighted {
			for i := range g.Weights {
				if got.Weights[i] != g.Weights[i] {
					return false
				}
			}
		} else if got.Weights != nil {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph at all........"))); err == nil {
		t.Error("ReadBinary accepted garbage")
	}
}

// TestOversizedHeaderAllocatesLittle feeds each reader a bare header that
// claims 2^27 vertices and edges and carries no body. The read must fail
// on the short body having allocated about one chunk, not the gigabytes
// the header claims.
func TestOversizedHeaderAllocatesLittle(t *testing.T) {
	csr := binary.LittleEndian.AppendUint32(nil, binaryMagic)
	csr = binary.LittleEndian.AppendUint32(csr, 0)
	csr = binary.LittleEndian.AppendUint64(csr, 1<<27)
	csr = binary.LittleEndian.AppendUint64(csr, 1<<27)
	small, err := FromAdjacency([][]int32{{1}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	packed := Pack(small, 0).AppendTo(nil)[:packedHeaderLen]
	binary.LittleEndian.PutUint64(packed[8:], 1<<27)  // vertices
	binary.LittleEndian.PutUint64(packed[16:], 1<<27) // edges
	binary.LittleEndian.PutUint64(packed[48:], 1<<27) // blob bytes

	for _, tc := range []struct {
		name string
		hdr  []byte
		read func(io.Reader) error
	}{
		{"csr", csr, func(r io.Reader) error { _, err := ReadBinaryFrom(r); return err }},
		{"packed", packed, func(r io.Reader) error { _, err := ReadPackedFrom(r); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.read(bytes.NewReader(tc.hdr))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want a short-body EOF", tc.name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: allocated %d bytes for a %d-byte header, want < 1 MiB", tc.name, n, len(tc.hdr))
		}
	}
}

func TestFromAdjacency(t *testing.T) {
	g, err := FromAdjacency([][]int32{{1, 2}, {2}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 || g.Degree(2) != 0 {
		t.Errorf("FromAdjacency wrong shape: edges=%d deg2=%d", g.NumEdges(), g.Degree(2))
	}
}

// BenchmarkBuild times Build alone on 100k random edges; the dedup case
// uses 1 000 vertices, so about 5% of its edges are parallel.
func BenchmarkBuild(b *testing.B) {
	for _, bc := range []struct {
		name            string
		n               int
		weighted, dedup bool
	}{
		{"unweighted", 10000, false, false},
		{"weighted", 10000, true, false},
		{"weighted-dedup", 1000, true, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			stream := randomStream(1, bc.n, 100000, bc.weighted)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bl := NewBuilder(bc.n, bc.weighted)
				for _, e := range stream {
					bl.AddEdge(e.Src, e.Dst, e.Weight)
				}
				b.StartTimer()
				if g, err := bl.Build(bc.dedup); err != nil || g.NumEdges() == 0 {
					b.Fatal("empty graph", err)
				}
			}
		})
	}
}

// refBuild is the comparator reference Build must match: one stable sort
// of the whole edge list by (src, dst), then parallel edges dropped after
// the first, on a copy of the edges.
func refBuild(n int, weighted bool, edges []Edge, dedup bool) *CSR {
	edges = slices.Clone(edges)
	slices.SortStableFunc(edges, func(x, y Edge) int {
		if c := cmp.Compare(x.Src, y.Src); c != 0 {
			return c
		}
		return cmp.Compare(x.Dst, y.Dst)
	})
	if dedup {
		edges = slices.CompactFunc(edges, func(x, y Edge) bool { return x.Src == y.Src && x.Dst == y.Dst })
	}
	g := &CSR{RowPtr: make([]int64, n+1)}
	if weighted {
		g.Weights = []float32{}
	}
	for _, e := range edges {
		g.RowPtr[e.Src+1]++
		g.ColIdx = append(g.ColIdx, e.Dst)
		if weighted {
			g.Weights = append(g.Weights, e.Weight)
		}
	}
	for v := 0; v < n; v++ {
		g.RowPtr[v+1] += g.RowPtr[v]
	}
	return g
}

// checkSameCSR fails t unless got and want hold the same arrays.
func checkSameCSR(t *testing.T, what string, got, want *CSR) {
	t.Helper()
	if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) ||
		!slices.Equal(got.Weights, want.Weights) || got.Weighted() != want.Weighted() {
		t.Fatalf("%s: got RowPtr %v ColIdx %v Weights %v, want %v %v %v", what,
			got.RowPtr, got.ColIdx, got.Weights, want.RowPtr, want.ColIdx, want.Weights)
	}
}

// TestBuilderRepeatedBuild: Build leaves the added edges as they were, so
// every call, in either mode and after more AddEdge calls, equals a fresh
// builder's result. Dedup once compacted the edges without shortening
// them, so this sequence returned ColIdx [1 2 2], Weights [1 3 3].
func TestBuilderRepeatedBuild(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 1, 2)
	b.AddEdge(0, 2, 3)
	for _, dedup := range []bool{true, false, true} {
		g, err := b.Build(dedup)
		if err != nil {
			t.Fatal(err)
		}
		checkSameCSR(t, fmt.Sprintf("Build(%v)", dedup), g, refBuild(3, true, b.edges, dedup))
	}
	if g, _ := b.Build(false); !slices.Equal(g.ColIdx, []int32{1, 1, 2}) || !slices.Equal(g.Weights, []float32{1, 2, 3}) {
		t.Errorf("Build(false) after Build(true) = %v %v, want [1 1 2] [1 2 3]", g.ColIdx, g.Weights)
	}
	if b.NumEdges() != 3 {
		t.Errorf("NumEdges = %d after Build, want 3", b.NumEdges())
	}
	stream := randomStream(5, 50, 2000, true)
	b = NewBuilder(50, true)
	for i, e := range stream {
		b.AddEdge(e.Src, e.Dst, e.Weight)
		if i%500 == 499 {
			for _, dedup := range []bool{true, false} {
				g, err := b.Build(dedup)
				if err != nil {
					t.Fatal(err)
				}
				checkSameCSR(t, fmt.Sprintf("%d edges, dedup %v", i+1, dedup), g, refBuild(50, true, stream[:i+1], dedup))
			}
		}
	}
}

// TestBuildRowSortsFanOut: at sizes where Build sorts its rows on the row
// pool, it still equals the comparator reference, weighted or not, in both
// dedup modes, and at GOMAXPROCS above 1 the sorts really went to the pool.
func TestBuildRowSortsFanOut(t *testing.T) {
	const n = 3000
	for _, weighted := range []bool{false, true} {
		stream := randomStream(9, n, 4*parallelBuildEdges, weighted)
		b := NewBuilder(n, weighted)
		for _, e := range stream {
			b.AddEdge(e.Src, e.Dst, e.Weight)
		}
		for _, dedup := range []bool{false, true} {
			posts := par.Posts()
			g, err := b.Build(dedup)
			if err != nil {
				t.Fatal(err)
			}
			if runtime.GOMAXPROCS(0) > 1 && par.Posts() == posts {
				t.Errorf("weighted %v, dedup %v: rows were sorted inline", weighted, dedup)
			}
			checkSameCSR(t, fmt.Sprintf("weighted %v, dedup %v", weighted, dedup), g, refBuild(n, weighted, stream, dedup))
		}
	}
}

// FuzzBuild checks Build against refBuild on small graphs decoded from the
// fuzz bytes: three bytes per edge (src, dst, weight), weighted or not,
// both dedup modes, and Build called again after more edges are added.
func FuzzBuild(f *testing.F) {
	f.Add(uint8(3), true, uint8(1), []byte{0, 1, 1, 0, 1, 2, 0, 2, 3})
	f.Add(uint8(5), false, uint8(2), []byte{4, 0, 0, 0, 4, 0, 4, 0, 0, 2, 2, 0, 4, 0, 0})
	f.Add(uint8(200), true, uint8(3), []byte{7, 9, 1, 7, 3, 2, 7, 9, 3, 7, 3, 4, 0, 0, 5})
	f.Add(uint8(5), true, uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, nb uint8, weighted bool, modes uint8, data []byte) {
		n := 1 + int(nb)
		var edges []Edge
		for ; len(data) >= 3; data = data[3:] {
			w := float32(0)
			if weighted {
				w = float32(data[2])
			}
			edges = append(edges, Edge{Src: int32(int(data[0]) % n), Dst: int32(int(data[1]) % n), Weight: w})
		}
		b := NewBuilder(n, weighted)
		added := 0
		for round, upTo := range []int{len(edges) / 2, len(edges), len(edges)} {
			for _, e := range edges[added:upTo] {
				b.AddEdge(e.Src, e.Dst, e.Weight)
			}
			added = upTo
			dedup := modes>>round&1 != 0
			g, err := b.Build(dedup)
			if err != nil {
				t.Fatal(err)
			}
			checkSameCSR(t, fmt.Sprintf("round %d, dedup %v", round, dedup), g, refBuild(n, weighted, edges[:added], dedup))
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
