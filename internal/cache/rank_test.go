package cache

import (
	"reflect"
	"sort"
	"testing"

	"gnnlab/internal/graph"
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

// TestSelectTopProperty exercises graph.SelectTop directly across sizes and k
// values against sorting the whole slice.
func TestSelectTopProperty(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(300)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(r.Intn(10)) // dense ties
		}
		less := func(a, b int32) bool {
			if vals[a] != vals[b] {
				return vals[a] > vals[b]
			}
			return a < b
		}
		ids := make([]int32, n)
		ref := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
			ref[i] = int32(i)
		}
		sort.Slice(ref, func(a, b int) bool { return less(ref[a], ref[b]) })
		k := r.Intn(n + 1)
		graph.SelectTop(ids, k, less)
		if !reflect.DeepEqual(ids[:k], ref[:k]) {
			t.Fatalf("trial %d: SelectTop(n=%d, k=%d) prefix differs", trial, n, k)
		}
		// The tail must still be a permutation of the reference tail.
		tail := append([]int32(nil), ids[k:]...)
		refTail := append([]int32(nil), ref[k:]...)
		sort.Slice(tail, func(a, b int) bool { return tail[a] < tail[b] })
		sort.Slice(refTail, func(a, b int) bool { return refTail[a] < refTail[b] })
		if !reflect.DeepEqual(tail, refTail) {
			t.Fatalf("trial %d: SelectTop lost elements", trial)
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

// BenchmarkCacheRank contrasts the full sort against top-k selection at a
// realistic ranking size (≥1M vertices, 10% cache ratio).
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
