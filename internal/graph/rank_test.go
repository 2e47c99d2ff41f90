package graph

import (
	"math"
	"slices"
	"sort"
	"testing"

	"gnnlab/internal/rng"
)

// TestRadixTopProperty checks RadixTop against a comparator sort on
// (key, ID) across sizes, k, ascending ID subsets and key widths: dense
// ties, keys that differ only in one middle byte, and full-width keys.
func TestRadixTopProperty(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(400)
		keys := make([]uint64, n)
		for i := range keys {
			switch trial % 3 {
			case 0:
				keys[i] = uint64(r.Intn(10)) // dense ties
			case 1:
				keys[i] = 0xABCD_0000_0000_1234 | uint64(r.Intn(256))<<24
			default:
				keys[i] = r.Uint64()
			}
		}
		var ids []int32
		for v := range n {
			if r.Intn(4) > 0 {
				ids = append(ids, int32(v))
			}
		}
		want := slices.Clone(ids)
		sort.Slice(want, func(a, b int) bool {
			ka, kb := keys[want[a]], keys[want[b]]
			if ka != kb {
				return ka < kb
			}
			return want[a] < want[b]
		})
		k := r.Intn(len(ids) + 2)
		got := RadixTop(ids, k, func(ids []int32, out []uint64) {
			for i, v := range ids {
				out[i] = keys[v]
			}
		})
		if m := min(k, len(want)); !slices.Equal(got, want[:m]) {
			t.Fatalf("trial %d: RadixTop(k=%d) over %d IDs differs from the comparator sort", trial, k, len(want))
		}
	}
}

// TestFloatKeyOrder: FloatKey ascends with the float over the whole line,
// ties ±0 and rejects NaN.
func TestFloatKeyOrder(t *testing.T) {
	vals := []float64{math.Inf(-1), -math.MaxFloat64, -1.5, -math.SmallestNonzeroFloat64, 0,
		math.SmallestNonzeroFloat64, 1, 1.5, math.MaxFloat64, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		if FloatKey(vals[i-1]) >= FloatKey(vals[i]) {
			t.Errorf("FloatKey(%v) >= FloatKey(%v)", vals[i-1], vals[i])
		}
	}
	if FloatKey(math.Copysign(0, -1)) != FloatKey(0) {
		t.Error("FloatKey(-0) != FloatKey(+0)")
	}
	defer func() {
		if recover() == nil {
			t.Error("FloatKey(NaN) did not panic")
		}
	}()
	FloatKey(math.NaN())
}
