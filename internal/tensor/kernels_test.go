package tensor

import (
	"fmt"
	"math"
	"testing"

	"gnnlab/internal/rng"
)

// forEachArm runs f once with the Go loops and once with the AVX2 arm,
// flipping the package selector; the AVX2 run is skipped on a CPU that
// lacks it.
func forEachArm(t *testing.T, f func(t *testing.T)) {
	cpuHasAVX2 := useAVX2
	defer func() { useAVX2 = cpuHasAVX2 }()
	for _, arm := range []struct {
		name string
		avx2 bool
	}{{"go", false}, {"avx2", true}} {
		t.Run(arm.name, func(t *testing.T) {
			if arm.avx2 && !cpuHasAVX2 {
				t.Skip("no AVX2 arm: not amd64, the CPU lacks AVX2, or the OS does not save YMM state")
			}
			useAVX2 = arm.avx2
			f(t)
		})
	}
}

// kernelNaN is the NaN x86 produces for 0·Inf and Inf−Inf. It is the only
// NaN the differential test feeds in: where two NaNs meet in an add, which
// one survives depends on operand order, and on the Go arm that order is
// the compiler's choice term by term. With a single NaN in play every bit
// of every result is determined by the fold order alone.
var kernelNaN = math.Float32frombits(0xffc00000)

// kernelValue draws a float32 that is special about a quarter of the time:
// ±0, ±Inf, NaN, ±subnormal or ±MaxFloat32.
func kernelValue(r *rng.Rand) float32 {
	specials := [...]float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), kernelNaN,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 3e-39,
		math.MaxFloat32, -math.MaxFloat32,
	}
	if r.Intn(4) == 0 {
		return specials[r.Intn(len(specials))]
	}
	return float32(r.NormFloat64())
}

// guarded returns n values at offset off inside a buffer whose other
// elements hold a sentinel, so a kernel writing outside its slice shows.
func guarded(n, off int, r *rng.Rand) (buf, s []float32) {
	buf = make([]float32, off+n+8)
	for i := range buf {
		buf[i] = 12345
	}
	s = buf[off : off+n]
	for i := range s {
		s[i] = kernelValue(r)
	}
	return buf, s
}

// bitsEqual reports the first index where a and b differ in bits, or -1.
func bitsEqual(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestVectorKernelsMatchGo runs panel, its row-index form FoldRows, AXPY,
// Scale, ReLU and ReLUBackward through both arms on the same inputs and
// compares every bit of the result, including the elements around the
// written slice.
func TestVectorKernelsMatchGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 arm: not amd64, the CPU lacks AVX2, or the OS does not save YMM state")
	}
	defer func() { useAVX2 = true }()
	r := rng.New(14)
	// both runs f on a copy of buf for each arm and compares the copies.
	both := func(name string, n, off int, buf []float32, f func(s []float32)) {
		t.Helper()
		var res [2][]float32
		for arm, avx2 := range []bool{false, true} {
			res[arm] = append([]float32(nil), buf...)
			useAVX2 = avx2
			f(res[arm][off : off+n])
		}
		if i := bitsEqual(res[0], res[1]); i >= 0 {
			t.Fatalf("%s len %d offset %d: element %d is %#08x on Go, %#08x on AVX2",
				name, n, off, i-off, math.Float32bits(res[0][i]), math.Float32bits(res[1][i]))
		}
	}
	// panel: every strip boundary (64, 32, 8, 1 columns) and rows of
	// several strips, short and long k, a row (stride 1) and a column walk
	// of a, in both zero modes.
	var widths []int
	for n := 0; n <= 70; n++ {
		widths = append(widths, n)
	}
	widths = append(widths, 127, 128, 129, 130, 256, 257)
	ks := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65}
	for _, n := range widths {
		for _, k := range ks {
			for _, aStride := range []int{1, 2 + r.Intn(4)} {
				for _, skip := range []bool{true, false} {
					_, a := guarded(max(0, (k-1)*aStride+1), r.Intn(8), r)
					bStride := n + r.Intn(3) // rows may be longer than d
					_, b := guarded(max(0, (k-1)*bStride+n), r.Intn(8), r)
					off := r.Intn(8)
					buf, _ := guarded(n, off, r)
					name := fmt.Sprintf("panel K %d aStride %d skip %v", k, aStride, skip)
					both(name, n, off, buf, func(d []float32) { panel(d, a, aStride, k, b, bStride, skip) })
				}
			}
		}
	}
	// FoldRows: the same widths over index lists that are empty, in order,
	// out of order and repeated, with nil (unit) and drawn coefficients. A
	// ±0 coefficient sits opposite a row holding an Inf and a NaN: the
	// row-index form folds every term.
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	for _, n := range widths {
		for _, rows := range foldRowLists(r) {
			const bRows = 12
			b := New(bRows, n)
			for i := range b.Data {
				b.Data[i] = kernelValue(r)
			}
			if n > 0 {
				b.Set(5, 0, inf)
				b.Set(5, n-1, kernelNaN)
			}
			for _, unit := range []bool{true, false} {
				var coef []float32
				if !unit {
					coef = make([]float32, len(rows))
					for k, row := range rows {
						coef[k] = kernelValue(r)
						if row == 5 {
							coef[k] = [2]float32{0, negZero}[r.Intn(2)]
						}
					}
				}
				off := r.Intn(8)
				buf, _ := guarded(n, off, r)
				name := fmt.Sprintf("FoldRows rows %v unit %v", rows, unit)
				both(name, n, off, buf, func(d []float32) { FoldRows(d, coef, b, rows) })
			}
		}
	}
	for n := 0; n <= 70; n++ {
		for off := 0; off < 8; off++ {
			buf, _ := guarded(n, off, r)
			alpha := kernelValue(r)
			_, x := guarded(n, r.Intn(8), r)
			both("AXPY", n, off, buf, func(y []float32) { AXPY(alpha, x, y) })

			both("Scale", n, off, buf, func(x []float32) { Scale(alpha, x) })

			both("ReLU", n, off, buf, func(s []float32) { ReLU(FromData(1, n, s)) })

			_, out := guarded(n, r.Intn(8), r)
			both("ReLUBackward", n, off, buf, func(g []float32) { ReLUBackward(FromData(1, n, g), FromData(1, n, out)) })
			ReLU(FromData(1, n, out)) // and against a real ReLU result
			both("ReLUBackward after ReLU", n, off, buf, func(g []float32) { ReLUBackward(FromData(1, n, g), FromData(1, n, out)) })
		}
	}
}

// foldRowLists returns FoldRows index lists into a 12-row b: empty, one
// row, every row in order, a shuffled list with repeats, and rows 13–20
// long (more than one eight-term pass of the Go arm) that visit row 5.
func foldRowLists(r *rng.Rand) [][]int32 {
	lists := [][]int32{{}, {5}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, {11, 3, 3, 0, 5, 11, 5}}
	long := []int32{5}
	for len(long) < 13+r.Intn(8) {
		long = append(long, int32(r.Intn(12)))
	}
	return append(lists, long)
}

// TestFoldRowsMatchesAXPYPerRow pins FoldRows to what it replaces in the
// forward passes: one AXPY per listed row, in list order, with the row's
// coefficient (1 for a nil coef), on both arms and every index list of
// foldRowLists. A ±0 coefficient opposite an Inf or NaN gives NaN, which
// AXPY does too.
func TestFoldRowsMatchesAXPYPerRow(t *testing.T) {
	forEachArm(t, func(t *testing.T) {
		r := rng.New(17)
		for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 130} {
			for _, rows := range foldRowLists(r) {
				b := New(12, n)
				for i := range b.Data {
					b.Data[i] = kernelValue(r)
				}
				if n > 0 {
					b.Set(5, 0, float32(math.Inf(-1)))
				}
				for _, unit := range []bool{true, false} {
					var coef []float32
					if !unit {
						coef = make([]float32, len(rows))
						for k := range coef {
							coef[k] = kernelValue(r)
						}
					}
					start := make([]float32, n)
					for i := range start {
						start[i] = kernelValue(r)
					}
					want := append([]float32(nil), start...)
					for k, row := range rows {
						c := float32(1)
						if coef != nil {
							c = coef[k]
						}
						AXPY(c, b.Row(int(row)), want)
					}
					got := append([]float32(nil), start...)
					FoldRows(got, coef, b, rows)
					if i := bitsEqual(got, want); i >= 0 {
						t.Fatalf("len %d rows %v unit %v: element %d = %#08x, AXPY per row gives %#08x",
							n, rows, unit, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	})
}

// TestFoldRowsRejectsBadOperands checks that FoldRows panics in its Go
// wrapper, before either arm touches memory (d stays as it was), on a row
// index outside b, a coefficient list of the wrong length, a d that is
// not one row of b wide and a b whose Data is shorter than Rows×Cols.
func TestFoldRowsRejectsBadOperands(t *testing.T) {
	forEachArm(t, func(t *testing.T) {
		r := rng.New(18)
		b := randomMatrix(4, 9, r)
		short := &Matrix{Rows: 4, Cols: 9, Data: b.Data[:35]}
		cases := []struct {
			name string
			d    []float32
			coef []float32
			b    *Matrix
			rows []int32
		}{
			{"row past the end", make([]float32, 9), nil, b, []int32{0, 4}},
			{"negative row", make([]float32, 9), nil, b, []int32{-1}},
			{"far row", make([]float32, 9), []float32{1, 1}, b, []int32{1 << 30, 0}},
			{"short coef", make([]float32, 9), []float32{1}, b, []int32{0, 1}},
			{"narrow d", make([]float32, 8), nil, b, []int32{0}},
			{"short b", make([]float32, 9), nil, short, []int32{0}},
		}
		for _, c := range cases {
			for i := range c.d {
				c.d[i] = 12345
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: FoldRows did not panic", c.name)
					}
				}()
				FoldRows(c.d, c.coef, c.b, c.rows)
			}()
			for i, v := range c.d {
				if v != 12345 {
					t.Fatalf("%s: d[%d] = %v after the panic, want it untouched", c.name, i, v)
				}
			}
		}
	})
}

// TestVectorKernelsEdgeCases pins, on both arms, what the differential
// test only compares: a ±0 coefficient opposite an Inf is skipped in skip
// mode and gives NaN without it, a NaN coefficient is never skipped, 0·Inf
// is NaN in AXPY, ReLU sends NaN and −0 to +0, its backward keeps a
// gradient's bits exactly where out > 0, and a product whose operand Data
// is shorter than Rows×Cols panics before any kernel reads it.
func TestVectorKernelsEdgeCases(t *testing.T) {
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	forEachArm(t, func(t *testing.T) {
		for _, n := range []int{1, 7, 8, 9, 33, 64, 65, 100} {
			const k = 12
			a := make([]float32, k)
			b := make([]float32, k*n)
			for i := range a {
				a[i] = 1
			}
			for i := range b {
				b[i] = 1
			}
			for j := 0; j < n; j++ {
				b[3*n+j] = inf
			}
			d := make([]float32, n)
			for _, zero := range []float32{0, negZero} {
				a[3] = zero
				clear(d)
				panel(d, a, 1, k, b, n, true)
				for j, v := range d {
					if v != k-1 {
						t.Fatalf("panel len %d: skipped %v·Inf left element %d = %v, want %d", n, zero, j, v, k-1)
					}
				}
				clear(d)
				panel(d, a, 1, k, b, n, false)
				for j, v := range d {
					if !math.IsNaN(float64(v)) {
						t.Fatalf("panel len %d: folded %v·Inf left element %d = %v, want NaN", n, zero, j, v)
					}
				}
			}
			a[3] = 1
			a[7] = kernelNaN
			for _, skip := range []bool{true, false} {
				clear(d)
				panel(d, a, 1, k, b, n, skip)
				for j, v := range d {
					if math.Float32bits(v) != math.Float32bits(kernelNaN) {
						t.Fatalf("panel len %d skip %v: NaN coefficient left element %d = %v, want NaN", n, skip, j, v)
					}
				}
			}

			y := make([]float32, n)
			AXPY(0, b[3*n:4*n], y)
			if !math.IsNaN(float64(y[n-1])) {
				t.Fatalf("AXPY len %d: 0·Inf = %v, want NaN", n, y[n-1])
			}
		}

		// One element short in each operand of each product: dst's row
		// slicing, the transposed copy's row reads or panel's bounds proof
		// must panic.
		r := rng.New(16)
		products := []struct {
			name string
			run  func(dst, a, b *Matrix)
			// shapes of dst, a, b for a 5×6 @ 6×7 product
			dst, a, b [2]int
		}{
			{"MatMul", MatMul, [2]int{5, 7}, [2]int{5, 6}, [2]int{6, 7}},
			{"MatMulATB", MatMulATB, [2]int{5, 7}, [2]int{6, 5}, [2]int{6, 7}},
			{"MatMulABT", MatMulABT, [2]int{5, 7}, [2]int{5, 6}, [2]int{7, 6}},
		}
		for _, p := range products {
			for short := 0; short < 3; short++ {
				ms := [3]*Matrix{New(p.dst[0], p.dst[1]), randomMatrix(p.a[0], p.a[1], r), randomMatrix(p.b[0], p.b[1], r)}
				m := ms[short]
				m.Data = append([]float32(nil), m.Data[:len(m.Data)-1]...)
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s with operand %d one element short did not panic", p.name, short)
						}
					}()
					p.run(ms[0], ms[1], ms[2])
				}()
			}
		}

		m := FromData(1, 5, []float32{kernelNaN, negZero, -1, 2, math.SmallestNonzeroFloat32})
		ReLU(m)
		want := []uint32{0, 0, 0, math.Float32bits(2), math.Float32bits(math.SmallestNonzeroFloat32)}
		for i, v := range m.Data {
			if math.Float32bits(v) != want[i] {
				t.Fatalf("ReLU element %d = %#08x, want %#08x", i, math.Float32bits(v), want[i])
			}
		}
		grad := FromData(1, 5, []float32{kernelNaN, negZero, 7, negZero, kernelNaN})
		ReLUBackward(grad, m)
		wantGrad := []uint32{0, 0, 0, math.Float32bits(negZero), math.Float32bits(kernelNaN)}
		for i, v := range grad.Data {
			if math.Float32bits(v) != wantGrad[i] {
				t.Fatalf("ReLUBackward element %d = %#08x, want %#08x", i, math.Float32bits(v), wantGrad[i])
			}
		}
	})
}

// TestReLUBackwardMatchesMask pins the mask-free backward against the mask
// the forward pass used to record: a pre-activation v was active exactly
// when v > 0, and ReLU's output is > 0 exactly there, so reading the
// output back zeroes the same gradients, on both arms.
func TestReLUBackwardMatchesMask(t *testing.T) {
	forEachArm(t, func(t *testing.T) {
		r := rng.New(15)
		for n := 0; n <= 70; n++ {
			_, pre := guarded(n, 0, r)
			_, grad := guarded(n, 0, r)
			want := append([]float32(nil), grad...)
			for i, v := range pre {
				if !(v > 0) {
					want[i] = 0
				}
			}
			out := FromData(1, n, append([]float32(nil), pre...))
			ReLU(out)
			ReLUBackward(FromData(1, n, grad), out)
			if i := bitsEqual(grad, want); i >= 0 {
				t.Fatalf("len %d: pre-activation %v gives gradient %v, mask gives %v", n, pre[i], grad[i], want[i])
			}
		}
	})
}
