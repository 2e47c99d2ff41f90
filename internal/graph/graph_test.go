package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/quick"

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
	for _, d := range g.OutDegrees() {
		outSum += d
	}
	for _, d := range g.InDegrees() {
		inSum += d
	}
	if outSum != g.NumEdges() || inSum != g.NumEdges() {
		t.Errorf("degree sums out=%d in=%d, want %d", outSum, inSum, g.NumEdges())
	}
}

func TestMaxDegreeAndRank(t *testing.T) {
	g := diamond(t)
	if got := g.MaxDegree(); got != 2 {
		t.Errorf("MaxDegree = %d, want 2", got)
	}
	rank := g.DegreeRank()
	if rank[0] != 0 { // vertex 0 has the unique max out-degree
		t.Errorf("DegreeRank[0] = %d, want 0", rank[0])
	}
	for i := 1; i < len(rank); i++ {
		if g.Degree(rank[i-1]) < g.Degree(rank[i]) {
			t.Errorf("DegreeRank not descending at %d", i)
		}
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

func TestReverseTwiceIsIdentity(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw, eRaw uint8) bool {
		n := int(nRaw%40) + 2
		e := int(eRaw) + 1
		g := randomGraph(seed, n, e, true)
		rr := g.Reverse().Reverse()
		if len(rr.ColIdx) != len(g.ColIdx) {
			return false
		}
		for v := 0; v < n; v++ {
			if g.RowPtr[v] != rr.RowPtr[v] {
				return false
			}
		}
		// Same sorted adjacency per vertex (Reverse preserves edges).
		for v := int32(0); int(v) < n; v++ {
			a, b := g.Adj(v), rr.Adj(v)
			if len(a) != len(b) {
				return false
			}
			counts := map[int32]int{}
			for _, x := range a {
				counts[x]++
			}
			for _, x := range b {
				counts[x]--
			}
			for _, c := range counts {
				if c != 0 {
					return false
				}
			}
		}
		return rr.Validate() == nil
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReversePreservesWeights(t *testing.T) {
	g := diamond(t)
	rev := g.Reverse()
	// Edge 3->0 (w 5) becomes 0->3 in the reverse.
	adj := rev.Adj(0)
	w := rev.AdjWeights(0)
	found := false
	for i, dst := range adj {
		if dst == 3 && w[i] == 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("reverse lost edge 3->0 w=5: adj=%v w=%v", adj, w)
	}
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

func BenchmarkBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := randomGraph(uint64(i), 10000, 100000, false)
		if g.NumEdges() == 0 {
			b.Fatal("empty graph")
		}
	}
}
