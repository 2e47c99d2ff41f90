package tensor

import (
	"fmt"

	"gnnlab/internal/par"
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

// parallelThreshold is the work, in multiply-add equivalents, at and
// above which a row-independent stage runs on the par pool: a product,
// counted in multiply-adds, or a caller of ParallelRows, which counts a
// folded or copied element as one. Every row is still computed by the
// same serial code, so the constant moves time only, never results.
//
// Derived with BenchmarkFanOut on the pool (2-core box, GOMAXPROCS 2,
// n×64 @ 64×64 back to back, AVX2 panel kernel, median of 7 in µs):
//
//	mul-adds   serial   pool
//	1<<15         0.9    1.6   pool loses
//	1<<16         1.8    2.0   pool loses
//	1<<17         3.6    3.2   1.1×
//	1<<18         7.1    5.4   1.3×
//	1<<19        14.5    9.0   1.6×
//	1<<20        29.5   17.4   1.7×
//	1<<21        59.2   33.7   1.8×
//	1<<22       118.8   65.7   1.8×
//	1<<23       236.3  126.2   1.9×
//
// A post costs well under a microsecond more than the serial call when
// the helpers are still spinning from the previous stage, which is the
// case between the stages of one minibatch.
const parallelThreshold = 1 << 17

// ParallelRows runs job over rows [0, n): inline when work (in
// multiply-add equivalents) is below parallelThreshold, on the par pool
// otherwise. The job must compute each row independently of the others.
func ParallelRows(job par.Job, n, work int) {
	if work < parallelThreshold {
		job.Rows(0, n)
		return
	}
	par.Run(job, n)
}

// rowKernel computes dst rows [lo,hi) of one of the three products.
type rowKernel func(dst, a, b *Matrix, lo, hi int)

// productJob is a product posted to the pool.
type productJob struct {
	kernel    rowKernel
	dst, a, b *Matrix
}

func (j *productJob) Rows(lo, hi int) { j.kernel(j.dst, j.a, j.b, lo, hi) }

// productJobs is the free list of product descriptors.
var productJobs par.Free[productJob]

// parallelRows runs kernel over dst rows [0, n), on the pool when the
// product has parallelThreshold multiply-adds or more. Neither path
// allocates once the free list holds a descriptor per concurrent caller.
func parallelRows(muladds, n int, kernel rowKernel, dst, a, b *Matrix) {
	if muladds < parallelThreshold {
		kernel(dst, a, b, 0, n)
		return
	}
	j := productJobs.Get()
	*j = productJob{kernel, dst, a, b}
	par.Run(j, n)
	*j = productJob{}
	productJobs.Put(j)
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
// concurrent caller).
var transposes par.Free[Matrix]

// transposed returns a copy of bᵀ from the free list; transposes.Put
// hands it back.
func transposed(b *Matrix) *Matrix {
	t := transposes.Get()
	t.Reuse(b.Cols, b.Rows)
	for i := 0; i < b.Rows; i++ {
		for k, v := range b.Row(i) {
			t.Data[k*t.Cols+i] = v
		}
	}
	return t
}
