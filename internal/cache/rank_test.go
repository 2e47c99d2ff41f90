package cache

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"gnnlab/internal/rng"
)

// refRank is the pre-quickselect reference: full sort, descending score,
// ties by ascending ID.
func refRank(score []float64) []int32 {
	ids := make([]int32, len(score))
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		sa, sb := score[ids[a]], score[ids[b]]
		if sa != sb {
			return sa > sb
		}
		return ids[a] < ids[b]
	})
	return ids
}

// scoreVectors builds hotness-like inputs that stress the selection:
// uniform randoms, heavy ties (integer counts), all-equal, sorted,
// reverse-sorted.
func scoreVectors(n int) map[string][]float64 {
	r := rng.New(42)
	random := make([]float64, n)
	ties := make([]float64, n)
	equal := make([]float64, n)
	asc := make([]float64, n)
	desc := make([]float64, n)
	for i := 0; i < n; i++ {
		random[i] = r.Float64()
		ties[i] = float64(r.Intn(7)) // heavy ties, like visit counts
		equal[i] = 1
		asc[i] = float64(i)
		desc[i] = float64(n - i)
	}
	return map[string][]float64{
		"random": random, "ties": ties, "equal": equal,
		"ascending": asc, "descending": desc,
	}
}

// TestRankTopMatchesRankPrefix: RankTop(k) must equal Rank()[:k] for every
// k — the bit-identicality contract of the quickselect substitution.
func TestRankTopMatchesRankPrefix(t *testing.T) {
	const n = 1000
	for name, score := range scoreVectors(n) {
		t.Run(name, func(t *testing.T) {
			want := refRank(score)
			h := NewHotness(score)
			for _, k := range []int{0, 1, 2, 17, n / 10, n / 2, n - 1, n, n + 50} {
				got := h.RankTop(k)
				kk := k
				if kk > n {
					kk = n
				}
				if !reflect.DeepEqual(got, want[:kk]) {
					t.Fatalf("RankTop(%d) differs from full-sort prefix", k)
				}
			}
			if !reflect.DeepEqual(h.Rank(), want) {
				t.Fatal("Rank() differs from full-sort reference")
			}
		})
	}
}

// TestRankTopDeterministic: repeated calls must agree exactly (the
// selection draws no randomness).
func TestRankTopDeterministic(t *testing.T) {
	score := scoreVectors(500)["ties"]
	h := NewHotness(score)
	first := h.RankTop(100)
	for i := 0; i < 5; i++ {
		if !reflect.DeepEqual(first, h.RankTop(100)) {
			t.Fatal("RankTop not deterministic")
		}
	}
}

// TestTopSetMatchesSortReference: the footprint top-set must match the old
// full-sort implementation.
func TestTopSetMatchesSortReference(t *testing.T) {
	r := rng.New(13)
	visits := make([]int64, 800)
	for i := range visits {
		if r.Intn(3) > 0 {
			visits[i] = int64(r.Intn(20))
		}
	}
	for _, fraction := range []float64{0, 0.01, 0.1, 0.5, 1.0} {
		got := topSet(visits, fraction)
		// Reference: sort all visited vertices.
		ids := make([]int32, 0, len(visits))
		for v, c := range visits {
			if c > 0 {
				ids = append(ids, int32(v))
			}
		}
		sort.Slice(ids, func(a, b int) bool {
			ca, cb := visits[ids[a]], visits[ids[b]]
			if ca != cb {
				return ca > cb
			}
			return ids[a] < ids[b]
		})
		k := int(fraction * float64(len(visits)))
		if k > len(ids) {
			k = len(ids)
		}
		if len(got) != k {
			t.Fatalf("fraction %.2f: topSet size %d, want %d", fraction, len(got), k)
		}
		for _, v := range ids[:k] {
			if _, ok := got[v]; !ok {
				t.Fatalf("fraction %.2f: topSet missing %d", fraction, v)
			}
		}
	}
}

// FuzzRank checks RankTop against refRank on scores drawn from a palette
// that stresses the key: heavy ties, ±0, ±subnormals, ±Inf and raw
// float64 bits. A NaN score must panic instead of ranking.
func FuzzRank(f *testing.F) {
	f.Add(uint16(3), []byte{0, 1, 2, 3, 4, 5, 6, 8, 16, 24, 0, 1})
	f.Add(uint16(0), []byte{7, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 9})
	f.Add(uint16(9), []byte{7, 1, 0, 0, 0, 0, 0, 0xf0, 0x7f, 7, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, k uint16, data []byte) {
		var score []float64
		hasNaN := false
		for len(data) > 0 {
			c := data[0]
			data = data[1:]
			var s float64
			switch c % 8 {
			case 0:
				s = 0
			case 1:
				s = math.Copysign(0, -1)
			case 2:
				s = math.SmallestNonzeroFloat64 * float64(c>>3)
			case 3:
				s = -math.SmallestNonzeroFloat64 * float64(c>>3)
			case 4:
				s = math.Inf(1)
			case 5:
				s = math.Inf(-1)
			case 6:
				s = float64(c>>3) - 8 // small integers: heavy ties
			case 7:
				var raw [8]byte
				copy(raw[:], data)
				data = data[min(8, len(data)):]
				s = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
			}
			hasNaN = hasNaN || math.IsNaN(s)
			score = append(score, s)
		}
		h := NewHotness(score)
		if hasNaN {
			defer func() {
				if recover() == nil {
					t.Fatal("RankTop ranked a NaN score")
				}
			}()
			h.RankTop(int(k))
			return
		}
		want := refRank(score)
		kk := min(int(k), len(score))
		if got := h.RankTop(int(k)); !slices.Equal(got, want[:kk]) {
			t.Fatalf("RankTop(%d) = %v, want %v (scores %v)", k, got, want[:kk], score)
		}
	})
}

// BenchmarkCacheRank contrasts the full ranking against the top-k prefix
// at a realistic ranking size (≥1M vertices, 10% cache ratio), and times
// the serve rerank's size (50k vertices, k = 5 000).
func BenchmarkCacheRank(b *testing.B) {
	const n = 1 << 20
	r := rng.New(3)
	score := make([]float64, n)
	for i := range score {
		score[i] = float64(r.Intn(1000)) // tie-heavy, like visit counts
	}
	h := NewHotness(score)
	b.Run("full-sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Rank()
		}
	})
	b.Run("rank-top-10pct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.RankTop(n / 10)
		}
	})
	rerank := make([]float64, 50_000)
	for i := range rerank {
		rerank[i] = r.Float64() * 1e3 // decayed visit rates: no shared bits
	}
	b.Run("rank-top-50k-k5000", func(b *testing.B) {
		h := NewHotness(rerank)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.RankTop(5_000)
		}
	})
	visits := make([]int64, n)
	for i := range visits {
		visits[i] = int64(r.Intn(1000))
	}
	b.Run("top-set-10pct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			topSet(visits, 0.10)
		}
	})
}
