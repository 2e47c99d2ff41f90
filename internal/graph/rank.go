package graph

import (
	"math"
	"math/bits"
	"slices"
)

// RadixTop orders ids by ascending key, stably (ids given ascending come
// out with ties by ascending ID), and returns the first k, k clamped to
// len(ids). key fills keys[i] with the key of ids[i], for blocks of up to
// keyBlock IDs; it sees every ID at least once. ids is overwritten.
//
// It is an LSD radix sort over the key's bytes that carries only IDs
// between passes (8 B per ID with its scratch) and takes each pass's byte
// from key again. One pass takes every byte's histogram; a byte all keys
// share costs no pass. For k under len(ids)/2, narrow first keeps the k.
func RadixTop(ids []int32, k int, key func(ids []int32, keys []uint64)) []int32 {
	k = max(0, min(k, len(ids)))
	var kb [keyBlock]uint64
	scratch := make([]int32, len(ids))
	if k < len(ids)/2 {
		ids, scratch = narrow(ids, scratch, k, key, &kb)
	}
	var hist [8][256]int
	for lo := 0; lo < len(ids); lo += keyBlock {
		keys := kb[:min(keyBlock, len(ids)-lo)]
		key(ids[lo:lo+len(keys)], keys)
		for _, k := range keys {
			for d := range hist {
				hist[d][byte(k>>(8*d))]++
			}
		}
	}
	for d := range hist {
		counts := &hist[d]
		if slices.Contains(counts[:], len(ids)) {
			continue
		}
		sum := 0
		for b, c := range counts {
			counts[b], sum = sum, sum+c
		}
		for lo := 0; lo < len(ids); lo += keyBlock {
			keys := kb[:min(keyBlock, len(ids)-lo)]
			key(ids[lo:lo+len(keys)], keys)
			for i, k := range keys {
				b := byte(k >> (8 * d))
				scratch[counts[b]] = ids[lo+i]
				counts[b]++
			}
		}
		ids, scratch = scratch, ids
	}
	return ids[:k:k]
}

// narrow returns the IDs of ids whose keys are among the k least, and a
// scratch slice as long. Each round histograms the windowBits key bits
// under the highest bit on which the candidates differ, sets aside those
// in buckets below the k-th key's and keeps those in its bucket, until the
// candidates tie; the first of them complete the k. Equal keys are set
// aside in one round, in input order, so the sort after stays stable.
func narrow(ids, scratch []int32, k int, key func([]int32, []uint64), kb *[keyBlock]uint64) ([]int32, []int32) {
	const mask = 1<<windowBits - 1
	key(ids[:1], kb[:1])
	k0, diff := kb[0], uint64(0)
	for lo := 0; lo < len(ids); lo += keyBlock {
		keys := kb[:min(keyBlock, len(ids)-lo)]
		key(ids[lo:lo+len(keys)], keys)
		for _, k := range keys {
			diff |= k ^ k0
		}
	}
	cand, m := ids, 0 // scratch[:m] holds the keys below every candidate's
	for diff != 0 {
		shift := max(0, bits.Len64(diff)-windowBits)
		var win [1 << windowBits]int
		for lo := 0; lo < len(cand); lo += keyBlock {
			keys := kb[:min(keyBlock, len(cand)-lo)]
			key(cand[lo:lo+len(keys)], keys)
			for _, k := range keys {
				win[(k>>shift)&mask]++
			}
		}
		last, below := uint64(0), m // the first non-empty bucket reaching k
		for ; below+win[last] < k || win[last] == 0; last++ {
			below += win[last]
		}
		n := 0
		diff = 0
		for lo := 0; lo < len(cand); lo += keyBlock {
			keys := kb[:min(keyBlock, len(cand)-lo)]
			key(cand[lo:lo+len(keys)], keys)
			for i, k := range keys {
				switch w := (k >> shift) & mask; {
				case w < last:
					scratch[m] = cand[lo+i]
					m++
				case w == last:
					if n == 0 {
						k0 = k
					}
					diff |= k ^ k0
					cand[n] = cand[lo+i] // in place: n <= lo+i
					n++
				}
			}
		}
		cand = cand[:n]
	}
	copy(scratch[m:k], cand)
	return scratch[:k], ids[:k]
}

const (
	keyBlock   = 256 // keys RadixTop asks for at once
	windowBits = 12  // width of narrow's window
)

// FloatKey maps a float64 to a uint64 that ascends as the float does, so
// RadixTop can rank by it (^FloatKey ranks descending). −0 and +0 share a
// key, as == has them equal; NaN, which has no place in an order, panics.
func FloatKey(f float64) uint64 {
	if f != f {
		panic("graph: FloatKey of NaN")
	}
	b := math.Float64bits(f + 0) // −0 + 0 is +0
	// Flip every bit of a negative float and only the sign of the rest.
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// Identity returns the IDs 0..n-1 in ascending order.
func Identity(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}
