package tensor

import (
	"runtime"
	"sync"
)

// The three product kernels share one contract, per output element: a
// single float32 accumulator starts at +0 and folds a·b over k ascending
// (matMulRows and matMulATBCols skip k where the a factor is zero;
// matMulABTRows does not). Blocking is therefore allowed only where it
// leaves that chain alone: taking several k per pass while the
// accumulator sits in a register, or computing several output elements
// side by side. Splitting one element's chain across accumulators, or
// reordering k, changes the rounding and is not allowed — every model's
// losses and checkpoints are pinned bit for bit on top of these
// (TestKernelsExactFoldOrder, train's golden digests).

// parallelThreshold is the multiply-add count at and above which a
// product fans out across cores. Row-partitioned products are bitwise
// identical to the serial computation (each output row is an independent
// serial reduction), so the constant moves time only, never results.
//
// Re-derived with BenchmarkFanOut on the AVX2 kernels (2-core box,
// GOMAXPROCS 2, n×64 @ 64×64, median of 7 in µs):
//
//	mul-adds        serial  fanned
//	1<<19 (0.25×)       69     110   fan-out loses
//	1<<20 (0.5×)       193     169   1.1×
//	3<<19 (0.75×)      248     192   1.3×
//	1<<21 (1×)         293     222   1.3×
//	1<<22 (2×)         609     482   1.3×
//	1<<23 (4×)        1409     843   1.7×
//
// The serial kernels got 3–4× faster. Back to back, fan-out now breaks
// even between 1<<19 and 1<<20, but that is with the second thread still
// spinning from the previous call. In a real step the products are
// separated by serial work and it has parked: with the constant at 1<<20,
// work_per_s was 0.97× (train-inline) and 1.00× (train-factored) of its
// value at 1<<21, over five alternated benchmark pairs each. The constant
// stays; a persistent pool, not this constant, is the fix.
const parallelThreshold = 1 << 21

// rowKernel computes dst rows [lo,hi) of one of the three products.
type rowKernel func(dst, a, b *Matrix, lo, hi int)

// parallelRows runs kernel over dst rows [0, n): serially when the
// product has fewer than parallelThreshold multiply-adds (or one core),
// otherwise split into contiguous chunks, one per core. The caller runs
// the last chunk itself, so a product on w cores spawns w-1 goroutines,
// and the serial case allocates nothing (kernel is a plain function, not
// a closure over the operands).
func parallelRows(muladds, n int, kernel rowKernel, dst, a, b *Matrix) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if muladds < parallelThreshold || workers <= 1 {
		kernel(dst, a, b, 0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	lo := 0
	for ; lo+chunk < n; lo += chunk {
		start := lo
		wg.Add(1)
		go func() {
			defer wg.Done()
			kernel(dst, a, b, start, start+chunk)
		}()
	}
	kernel(dst, a, b, lo, n)
	wg.Wait()
}

// kBlock is how many k one pass of the blocked kernels folds into a dst
// row; axpyBlock spells its eight terms out, so its array types pin the
// value.
const kBlock = 8

// axpyBlock folds kBlock scaled rows into d, in index order, holding each
// d[j] in a register across the adds: d[j] = (…((d[j] + a[0]·b[0][j]) +
// a[1]·b[1][j]) + …) + a[7]·b[7][j] — the chain eight AXPY calls produce,
// with an eighth of the loads and stores of d. The AVX2 arm computes eight
// j per instruction with the same chain. A b row shorter than d panics
// here, before either arm reads it (slicing alone would check capacity,
// and a Matrix row's capacity runs on into the next row).
func axpyBlock(d []float32, a *[8]float32, b *[8][]float32) {
	n := len(d)
	for _, r := range b {
		if len(r) < n {
			panic("tensor: axpyBlock row shorter than d")
		}
	}
	if useAVX2 {
		axpyBlockAVX2(d, a, b)
		return
	}
	a0, a1, a2, a3, a4, a5, a6, a7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
	b0, b1, b2, b3, b4, b5, b6, b7 := b[0][:n], b[1][:n], b[2][:n], b[3][:n], b[4][:n], b[5][:n], b[6][:n], b[7][:n]
	for j, v := range d {
		v += a0 * b0[j]
		v += a1 * b1[j]
		v += a2 * b2[j]
		v += a3 * b3[j]
		v += a4 * b4[j]
		v += a5 * b5[j]
		v += a6 * b6[j]
		v += a7 * b7[j]
		d[j] = v
	}
}

// matMulRows computes dst rows [lo,hi) of a @ b. Each row takes its
// nonzero a[i][k] kBlock at a time, k ascending.
func matMulRows(dst, a, b *Matrix, lo, hi int) {
	var av [kBlock]float32
	var bv [kBlock][]float32
	for i := lo; i < hi; i++ {
		dr := dst.Row(i)
		clear(dr)
		n := 0
		for k, aik := range a.Row(i) {
			if aik == 0 {
				continue
			}
			av[n], bv[n] = aik, b.Row(k)
			if n++; n == kBlock {
				axpyBlock(dr, &av, &bv)
				n = 0
			}
		}
		for c := 0; c < n; c++ {
			AXPY(av[c], bv[c], dr)
		}
	}
}

// matMulATBCols computes dst rows [lo,hi) of aᵀ @ b — each dst row i is
// owned by the worker covering a's column band [lo,hi). k stays the outer
// loop (kBlock rows of a and b stay in L1 while the band's dst rows are
// swept); a block with a zero in it goes one k at a time, so the zero
// skip means what it meant.
func matMulATBCols(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		clear(dst.Row(i))
	}
	var av [kBlock]float32
	var ar, bv [kBlock][]float32
	k := 0
	for ; k+kBlock <= a.Rows; k += kBlock {
		for c := range ar {
			ar[c], bv[c] = a.Row(k + c)[lo:hi], b.Row(k+c)
		}
		for i := range ar[0] {
			dense := true
			for c := range av {
				av[c] = ar[c][i]
				dense = dense && av[c] != 0
			}
			dr := dst.Row(lo + i)
			if dense {
				axpyBlock(dr, &av, &bv)
				continue
			}
			for c, v := range av {
				if v != 0 {
					AXPY(v, bv[c], dr)
				}
			}
		}
	}
	for ; k < a.Rows; k++ {
		br := b.Row(k)
		for i, aki := range a.Row(k)[lo:hi] {
			if aki != 0 {
				AXPY(aki, br, dst.Row(lo+i))
			}
		}
	}
}

// matMulABTRows computes dst rows [lo,hi) of a @ bᵀ, four dst columns at
// a time: four independent accumulators share each load of a[i][k].
func matMulABTRows(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		ar := a.Row(i)
		dr := dst.Row(i)
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0, b1, b2, b3 := b.Row(j)[:len(ar)], b.Row(j + 1)[:len(ar)], b.Row(j + 2)[:len(ar)], b.Row(j + 3)[:len(ar)]
			var s0, s1, s2, s3 float32
			for k, v := range ar {
				s0 += v * b0[k]
				s1 += v * b1[k]
				s2 += v * b2[k]
				s3 += v * b3[k]
			}
			dr[j], dr[j+1], dr[j+2], dr[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			br := b.Row(j)[:len(ar)]
			var sum float32
			for k, v := range ar {
				sum += v * br[k]
			}
			dr[j] = sum
		}
	}
}
