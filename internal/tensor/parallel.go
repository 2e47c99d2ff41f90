package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// The three products share one kernel, panel, and one contract per output
// element: a single float32 accumulator starts at +0 and folds a·b over k
// ascending (MatMul and MatMulATB skip k where the a factor is ±0;
// MatMulABT does not). Blocking is therefore allowed only where it leaves
// that chain alone: taking several k per pass while the accumulator sits
// in a register, storing it and loading it back between passes, or
// computing several output elements side by side.
// Splitting one element's chain across accumulators, or reordering k,
// changes the rounding and is not allowed — every model's losses and
// checkpoints are pinned bit for bit on top of these
// (TestKernelsExactFoldOrder, train's golden digests).

// parallelThreshold is the multiply-add count at and above which a
// product fans out across cores. Row-partitioned products are bitwise
// identical to the serial computation (each output row is an independent
// serial reduction), so the constant moves time only, never results.
//
// Re-derived with BenchmarkFanOut on the AVX2 panel kernel (2-core box,
// GOMAXPROCS 2, n×64 @ 64×64, median of 7 in µs):
//
//	mul-adds        serial  fanned
//	1<<19 (0.25×)       28      28   even
//	1<<20 (0.5×)        56      51   1.1×
//	3<<19 (0.75×)       82      87   fan-out loses
//	1<<21 (1×)         108     109   even
//	1<<22 (2×)         214     184   1.2×
//	1<<23 (4×)         429     296   1.5×
//
// The serial kernel got about 3× faster again, and back to back fan-out
// now breaks even between 1<<21 and 1<<22. The live first-layer products
// (4.9–5.7M multiply-adds) fan out at 1<<21 and would not at 1<<23; over
// four alternated benchmark pairs each, work_per_s at 1<<23 read 1.01×
// (train-inline) and 0.97× (train-factored) of its value at 1<<21, and
// 1<<23 won 2 and 3 of the 4 pairs. The constant stays; a persistent
// pool, not this constant, is the fix.
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

// panel folds K terms into one dst row: d[j] += a[k·aStride]·b[k·bStride+j]
// for k ascending in [0, K), each d[j] a single float32 accumulator that
// starts from its value in d (+0 on panels' first pass). With skipZeros a
// term whose a factor is ±0 is left out, so a zero hides an Inf or NaN
// opposite it; without, every term is folded (MatMulABT's contract).
// MatMul walks a row of a (aStride 1), MatMulATB a column (aStride
// a.Cols), MatMulABT a row of a over its copy of bᵀ.
//
// The length check below is the one bounds proof for a and b: the AVX2 arm
// reads exactly a[k·aStride] and b[k·bStride : k·bStride+len(d)] for each
// k < K, and nothing when K is 0.
func panel(d, a []float32, aStride, K int, b []float32, bStride int, skipZeros bool) {
	if K > 0 && (aStride < 1 || bStride < 0 || len(a) <= (K-1)*aStride || len(b) < (K-1)*bStride+len(d)) {
		panic("tensor: panel operand shorter than its K rows")
	}
	if useAVX2 {
		panelAVX2(d, a, aStride, K, b, bStride, skipZeros)
		return
	}
	panelGo(d, a, aStride, K, nil, b, bStride, skipZeros)
}

// FoldRows folds rows of b into d: d[j] += coef[k]·b.At(rows[k], j) for k
// ascending, each d[j] a single float32 accumulator that starts from its
// value in d. A nil coef weights every row 1. It is panel's row-index
// form: term k reads row rows[k] of b instead of row k, in any order and
// with repeats, and every term is folded, so a ±0 coefficient opposite an
// Inf or NaN gives NaN exactly as one AXPY per row in order would. d has
// b.Cols elements and must not alias b.
//
// The checks below are the bounds proof: the AVX2 arm reads
// coef[k] (coef[0] when nil) and b.Data[rows[k]·b.Cols : rows[k]·b.Cols+len(d)]
// for each k, and nothing when rows is empty.
func FoldRows(d, coef []float32, b *Matrix, rows []int32) {
	if len(d) != b.Cols || len(b.Data) != b.Rows*b.Cols || (coef != nil && len(coef) != len(rows)) {
		panic(fmt.Sprintf("tensor: FoldRows of %d rows with %d coefficients from %d×%d (%d elements) into %d columns",
			len(rows), len(coef), b.Rows, b.Cols, len(b.Data), len(d)))
	}
	for _, i := range rows {
		if uint32(i) >= uint32(b.Rows) {
			panic(fmt.Sprintf("tensor: FoldRows row %d outside %d rows", i, b.Rows))
		}
	}
	aStride := 1
	if coef == nil {
		coef, aStride = unitCoef[:], 0
	}
	if useAVX2 {
		panelRowsAVX2(d, coef, aStride, rows, b.Data, b.Cols)
		return
	}
	panelGo(d, coef, aStride, len(rows), rows, b.Data, b.Cols, false)
}

// unitCoef is FoldRows' coefficient for a nil coef, read at stride 0.
var unitCoef = [1]float32{1}

// panelGo is the Go arm of panel and of its row-index form (rows non-nil:
// term k reads b from rows[k]·bStride instead of k·bStride). It folds eight
// nonzero k per pass over d, holding each d[j] in a register across the
// eight adds — the chain eight single-k passes produce, with an eighth of
// the loads and stores of d.
func panelGo(d, a []float32, aStride, K int, rows []int32, b []float32, bStride int, skipZeros bool) {
	n := len(d)
	var av [8]float32
	var bo [8]int
	m := 0
	for k := 0; k < K; k++ {
		c := a[k*aStride]
		if skipZeros && c == 0 {
			continue
		}
		av[m], bo[m] = c, k*bStride
		if rows != nil {
			bo[m] = int(rows[k]) * bStride
		}
		if m++; m < len(av) {
			continue
		}
		m = 0
		a0, a1, a2, a3, a4, a5, a6, a7 := av[0], av[1], av[2], av[3], av[4], av[5], av[6], av[7]
		b0, b1, b2, b3 := b[bo[0]:][:n], b[bo[1]:][:n], b[bo[2]:][:n], b[bo[3]:][:n]
		b4, b5, b6, b7 := b[bo[4]:][:n], b[bo[5]:][:n], b[bo[6]:][:n], b[bo[7]:][:n]
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
	for t, o := range bo[:m] {
		c, br := av[t], b[o:][:n]
		for j := range d {
			d[j] += c * br[j]
		}
	}
}

// panelChunkBytes bounds the rows of b that one pass of panels folds into
// its dst rows: the pass then reads that block of b once per dst row from
// L1 instead of streaming all of b per row. MatMulATB's b, as tall as the
// batch, is the case it serves; the others' weight matrices mostly fit in
// one pass.
const panelChunkBytes = 16 << 10

// panels computes dst rows [lo,hi) of a product whose dst row i is the
// panel over b that walks a from a[i·step]. It clears the rows, then folds
// K in passes of whole chunks of k, so each element's chain is still one
// accumulator from +0 over k ascending; only its register is stored and
// reloaded between passes.
func panels(dst *Matrix, a []float32, step, aStride, K int, b *Matrix, lo, hi int, skipZeros bool) {
	for i := lo; i < hi; i++ {
		clear(dst.Row(i))
	}
	chunk := max(8, panelChunkBytes/(4*max(1, b.Cols)))
	for k0 := 0; k0 < K && lo < hi; k0 += chunk { // no rows: a may be empty
		kn := min(chunk, K-k0)
		ak, bk := a[k0*aStride:], b.Data[k0*b.Cols:]
		for i := lo; i < hi; i++ {
			panel(dst.Row(i), ak[i*step:], aStride, kn, bk, b.Cols, skipZeros)
		}
	}
}

// matMulRows computes dst rows [lo,hi) of a @ b: dst row i walks row i
// of a.
func matMulRows(dst, a, b *Matrix, lo, hi int) {
	panels(dst, a.Data, a.Cols, 1, a.Cols, b, lo, hi, true)
}

// matMulATBCols computes dst rows [lo,hi) of aᵀ @ b: dst row i walks
// column i of a.
func matMulATBCols(dst, a, b *Matrix, lo, hi int) {
	panels(dst, a.Data, 1, a.Cols, a.Rows, b, lo, hi, true)
}

// matMulDenseRows computes dst rows [lo,hi) of a @ b like matMulRows but
// folds every term: MatMulABT runs it over its copy of bᵀ.
func matMulDenseRows(dst, a, b *Matrix, lo, hi int) {
	panels(dst, a.Data, a.Cols, 1, a.Cols, b, lo, hi, false)
}

// transposes is MatMulABT's free list of bᵀ copies, the one buffer this
// package holds outside the callers' arenas. Each copy is at most one
// weight matrix; steady state takes and returns the same few (one per
// concurrent caller). It is a mutex-guarded list rather than a sync.Pool,
// whose entries a garbage collection may drop.
var transposes struct {
	sync.Mutex
	free []*Matrix
}

// transposed returns a copy of bᵀ from the free list; putTransposed hands
// it back.
func transposed(b *Matrix) *Matrix {
	var t *Matrix
	transposes.Lock()
	if n := len(transposes.free); n > 0 {
		t = transposes.free[n-1]
		transposes.free = transposes.free[:n-1]
	}
	transposes.Unlock()
	if t == nil {
		t = new(Matrix)
	}
	t.Reuse(b.Cols, b.Rows)
	for i := 0; i < b.Rows; i++ {
		for k, v := range b.Row(i) {
			t.Data[k*t.Cols+i] = v
		}
	}
	return t
}

func putTransposed(t *Matrix) {
	transposes.Lock()
	transposes.free = append(transposes.free, t)
	transposes.Unlock()
}
