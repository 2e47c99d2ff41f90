package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// packedTestGraph builds a power-law-ish random graph with hubs, isolated
// vertices, self-loops and duplicate edges — every row shape the encoder
// must handle.
func packedTestGraph(t testing.TB, n int, weighted bool, seed int64) *CSR {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, weighted)
	for v := 0; v < n; v++ {
		var deg int
		switch {
		case v%97 == 0: // hub
			deg = 40 + r.Intn(120)
		case v%11 == 0: // isolated
			deg = 0
		default:
			deg = r.Intn(8)
		}
		for i := 0; i < deg; i++ {
			dst := int32(r.Intn(n))
			if i == 0 && v%13 == 0 {
				dst = int32(v) // self-loop
			}
			var w float32
			if weighted {
				w = r.Float32()
			}
			b.AddEdge(int32(v), dst, w)
			if i == 1 && v%17 == 0 {
				b.AddEdge(int32(v), dst, w) // duplicate edge
			}
		}
	}
	g, err := b.Build(false)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

func TestPackedMatchesCSR(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := packedTestGraph(t, 1000, weighted, 42)
		p := Pack(g, 0)
		if err := p.Validate(); err != nil {
			t.Fatalf("weighted=%v: validate: %v", weighted, err)
		}
		if p.NumVertices() != g.NumVertices() || p.NumEdges() != g.NumEdges() {
			t.Fatalf("weighted=%v: shape (%d,%d) != (%d,%d)", weighted,
				p.NumVertices(), p.NumEdges(), g.NumVertices(), g.NumEdges())
		}
		if p.Weighted() != g.Weighted() {
			t.Fatalf("weighted=%v: Weighted() = %v", weighted, p.Weighted())
		}
		buf := make([]int32, 0, 8) // deliberately small: AdjInto must grow it
		for v := 0; v < g.NumVertices(); v++ {
			if dp, dg := p.Degree(int32(v)), g.Degree(int32(v)); dp != dg {
				t.Fatalf("weighted=%v: Degree(%d) = %d, want %d", weighted, v, dp, dg)
			}
			buf = p.AdjInto(int32(v), buf)
			if want := g.Adj(int32(v)); !equalInt32(buf, want) {
				t.Fatalf("weighted=%v: Adj(%d) = %v, want %v", weighted, v, buf, want)
			}
			if !equalInt32(p.Adj(int32(v)), g.Adj(int32(v))) {
				t.Fatalf("weighted=%v: alloc Adj(%d) mismatch", weighted, v)
			}
			wp, wg := p.AdjWeights(int32(v)), g.AdjWeights(int32(v))
			if len(wp) != len(wg) {
				t.Fatalf("weighted=%v: AdjWeights(%d) len %d, want %d", weighted, v, len(wp), len(wg))
			}
			for i := range wp {
				if wp[i] != wg[i] {
					t.Fatalf("weighted=%v: AdjWeights(%d)[%d] = %v, want %v", weighted, v, i, wp[i], wg[i])
				}
			}
		}
		if !reflect.DeepEqual(OutDegrees(p), OutDegrees(g)) {
			t.Fatalf("weighted=%v: OutDegrees mismatch", weighted)
		}
		if !reflect.DeepEqual(InDegrees(p), InDegrees(g)) {
			t.Fatalf("weighted=%v: InDegrees mismatch", weighted)
		}
		u := p.Unpack()
		if !reflect.DeepEqual(u.RowPtr, g.RowPtr) || !reflect.DeepEqual(u.ColIdx, g.ColIdx) ||
			!reflect.DeepEqual(u.Weights, g.Weights) {
			t.Fatalf("weighted=%v: Unpack mismatch", weighted)
		}
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPackedCompression(t *testing.T) {
	g := packedTestGraph(t, 4000, false, 7)
	p := Pack(g, 0)
	csrB, pkB := g.TopologyBytesUnweighted(), p.TopologyBytesUnweighted()
	if pkB >= csrB {
		t.Fatalf("packed %d bytes >= CSR %d bytes", pkB, csrB)
	}
	t.Logf("CSR %d B, packed %d B (%.2fx, %.2f B/edge)", csrB, pkB,
		float64(csrB)/float64(pkB), float64(pkB)/float64(g.NumEdges()))
}

func TestPackedDeterministicAcrossWorkers(t *testing.T) {
	g := packedTestGraph(t, 3000, true, 11)
	want := Pack(g, 1).AppendTo(nil)
	for _, workers := range []int{2, 4, 7} {
		got := Pack(g, workers).AppendTo(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: serialized bytes differ from workers=1", workers)
		}
	}
}

func TestPackedRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := packedTestGraph(t, 2000, weighted, 5)
		p := Pack(g, 0)
		raw := p.AppendTo(nil)
		q, err := PackedFromBytes(raw)
		if err != nil {
			t.Fatalf("weighted=%v: PackedFromBytes: %v", weighted, err)
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("weighted=%v: validate round-trip: %v", weighted, err)
		}
		// Structural equality: the round-tripped graph unpacks to the
		// original CSR and re-serializes to the identical bytes.
		u := q.Unpack()
		if !reflect.DeepEqual(u.RowPtr, g.RowPtr) || !reflect.DeepEqual(u.ColIdx, g.ColIdx) ||
			!reflect.DeepEqual(u.Weights, g.Weights) {
			t.Fatalf("weighted=%v: round-trip unpack mismatch", weighted)
		}
		if again := q.AppendTo(nil); !bytes.Equal(again, raw) {
			t.Fatalf("weighted=%v: re-serialized bytes differ", weighted)
		}
		// Stream form composes the same way.
		var bw bytes.Buffer
		if err := WritePacked(&bw, p); err != nil {
			t.Fatalf("WritePacked: %v", err)
		}
		s, err := ReadPackedFrom(&bw)
		if err != nil {
			t.Fatalf("ReadPackedFrom: %v", err)
		}
		if s.NumEdges() != p.NumEdges() || s.TopologyBytes() != p.TopologyBytes() {
			t.Fatalf("weighted=%v: stream round-trip shape mismatch", weighted)
		}
	}
}

func TestPackedEmptyAndTiny(t *testing.T) {
	// Zero vertices: builders reject n=0, but the packed format must still
	// round-trip the degenerate CSR.
	empty := &CSR{RowPtr: []int64{0}}
	pe := Pack(empty, 0)
	if err := pe.Validate(); err != nil {
		t.Fatalf("empty: validate: %v", err)
	}
	if _, err := PackedFromBytes(pe.AppendTo(nil)); err != nil {
		t.Fatalf("empty: round-trip: %v", err)
	}
	for _, adj := range [][][]int32{
		{{}},                 // one isolated vertex
		{{0}},                // one self-loop
		{{}, {}, {}},         // all isolated
		{{2, 1}, {0}, {1}},   // tiny cyclic
		{{1, 1, 1}, {0}, {}}, // duplicate edges
	} {
		g, err := FromAdjacency(adj)
		if err != nil {
			t.Fatalf("FromAdjacency: %v", err)
		}
		p := Pack(g, 0)
		if err := p.Validate(); err != nil {
			t.Fatalf("adj=%v: validate: %v", adj, err)
		}
		q, err := PackedFromBytes(p.AppendTo(nil))
		if err != nil {
			t.Fatalf("adj=%v: round-trip: %v", adj, err)
		}
		u := q.Unpack()
		if !reflect.DeepEqual(u.RowPtr, g.RowPtr) || !reflect.DeepEqual(u.ColIdx, g.ColIdx) {
			t.Fatalf("adj=%v: unpack mismatch", adj)
		}
	}
}

// TestPackedFromBytesAdversarial feeds hand-corrupted buffers through the
// full decode path: every mutation must produce a clean error from
// PackedFromBytes or Validate (or decode to a graph that still serves
// reads without panicking) — never a panic.
func TestPackedFromBytesAdversarial(t *testing.T) {
	g := packedTestGraph(t, 500, true, 3)
	raw := Pack(g, 0).AppendTo(nil)
	exercise := func(data []byte) {
		p, err := PackedFromBytes(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			return
		}
		buf := make([]int32, 0, 64)
		for v := 0; v < p.NumVertices(); v += 7 {
			buf = p.AdjInto(int32(v), buf)
			p.Degree(int32(v))
			p.AdjWeights(int32(v))
		}
	}
	exercise(nil)
	exercise(raw[:17])
	for i := 0; i < len(raw); i += 13 {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0xff
		exercise(mut)
	}
	for cut := 0; cut < len(raw); cut += 97 {
		exercise(raw[:cut])
	}
}

func FuzzPackedFromBytes(f *testing.F) {
	small, _ := FromAdjacency([][]int32{{1, 2}, {0}, {}})
	f.Add(Pack(small, 0).AppendTo(nil))
	f.Add(Pack(packedTestGraph(f, 300, true, 9), 0).AppendTo(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := PackedFromBytes(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			return
		}
		// A buffer that passes both layers must serve reads safely.
		buf := make([]int32, 0, 16)
		n := p.NumVertices()
		for v := 0; v < n && v < 512; v++ {
			buf = p.AdjInto(int32(v), buf)
			if int64(len(buf)) != p.Degree(int32(v)) {
				t.Fatalf("Adj/Degree disagree at %d", v)
			}
		}
	})
}
