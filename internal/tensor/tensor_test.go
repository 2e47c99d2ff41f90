package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"gnnlab/internal/rng"
)

func randomMatrix(rows, cols int, r *rng.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64())
	}
	return m
}

// naiveMatMul is the O(n^3) reference implementation.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float64
			for k := 0; k < a.Cols; k++ {
				sum += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			out.Set(i, j, float32(sum))
		}
	}
	return out
}

func matricesClose(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(float64(a.Data[i]-b.Data[i])) > tol {
			return false
		}
	}
	return true
}

func TestMatMulAgainstNaive(t *testing.T) {
	r := rng.New(1)
	if err := quick.Check(func(nRaw, kRaw, mRaw uint8) bool {
		n, k, m := int(nRaw%12)+1, int(kRaw%12)+1, int(mRaw%12)+1
		a, b := randomMatrix(n, k, r), randomMatrix(k, m, r)
		got := New(n, m)
		MatMul(got, a, b)
		return matricesClose(got, naiveMatMul(a, b), 1e-4)
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMatMulATB(t *testing.T) {
	r := rng.New(2)
	a, b := randomMatrix(7, 4, r), randomMatrix(7, 5, r)
	got := New(4, 5)
	MatMulATB(got, a, b)
	at := New(4, 7)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	if !matricesClose(got, naiveMatMul(at, b), 1e-4) {
		t.Error("MatMulATB != naive(aT @ b)")
	}
}

func TestMatMulABT(t *testing.T) {
	r := rng.New(3)
	a, b := randomMatrix(6, 4, r), randomMatrix(5, 4, r)
	got := New(6, 5)
	MatMulABT(got, a, b)
	bt := New(4, 5)
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	if !matricesClose(got, naiveMatMul(a, bt), 1e-4) {
		t.Error("MatMulABT != naive(a @ bT)")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(2, 2))
}

func TestAddBiasRows(t *testing.T) {
	m := New(2, 3)
	AddBiasRows(m, []float32{1, 2, 3})
	if m.At(0, 0) != 1 || m.At(1, 2) != 3 {
		t.Errorf("bias add wrong: %v", m.Data)
	}
}

func TestReLUForwardBackward(t *testing.T) {
	forEachArm(t, func(t *testing.T) {
		m := FromData(1, 4, []float32{-1, 2, 0, 3})
		ReLU(m)
		want := []float32{0, 2, 0, 3}
		for i, v := range want {
			if m.Data[i] != v {
				t.Fatalf("ReLU output %v, want %v", m.Data, want)
			}
		}
		grad := FromData(1, 4, []float32{10, 10, 10, 10})
		ReLUBackward(grad, m)
		wantGrad := []float32{0, 10, 0, 10}
		for i, v := range wantGrad {
			if grad.Data[i] != v {
				t.Fatalf("ReLU grad %v, want %v", grad.Data, wantGrad)
			}
		}
	})
}

func TestSoftmaxCrossEntropyLossAndAccuracy(t *testing.T) {
	// Perfectly confident correct prediction: tiny loss, full accuracy.
	logits := FromData(2, 3, []float32{10, -10, -10, -10, 10, -10})
	grad := New(2, 3)
	loss, correct := SoftmaxCrossEntropy(logits, []int32{0, 1}, grad)
	if loss > 1e-6 {
		t.Errorf("confident correct loss %v", loss)
	}
	if correct != 2 {
		t.Errorf("correct = %d, want 2", correct)
	}
	// Uniform logits: loss = ln(3).
	logits = New(2, 3)
	loss, _ = SoftmaxCrossEntropy(logits, []int32{0, 2}, grad)
	if math.Abs(loss-math.Log(3)) > 1e-6 {
		t.Errorf("uniform loss %v, want ln 3 = %v", loss, math.Log(3))
	}
}

// TestSoftmaxCEGradientNumerical verifies the analytic gradient against
// central finite differences.
func TestSoftmaxCEGradientNumerical(t *testing.T) {
	r := rng.New(4)
	logits := randomMatrix(3, 4, r)
	labels := []int32{1, 3, 0}
	grad := New(3, 4)
	SoftmaxCrossEntropy(logits, labels, grad)
	const eps = 1e-3
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lossP, _ := SoftmaxCrossEntropy(logits, labels, New(3, 4))
		logits.Data[i] = orig - eps
		lossM, _ := SoftmaxCrossEntropy(logits, labels, New(3, 4))
		logits.Data[i] = orig
		numeric := (lossP - lossM) / (2 * eps)
		if diff := math.Abs(numeric - float64(grad.Data[i])); diff > 1e-3 {
			t.Fatalf("grad[%d]: analytic %v numeric %v", i, grad.Data[i], numeric)
		}
	}
}

func TestSumRowsAXPYScale(t *testing.T) {
	m := FromData(2, 2, []float32{1, 2, 3, 4})
	out := make([]float32, 2)
	SumRows(m, out)
	if out[0] != 4 || out[1] != 6 {
		t.Errorf("SumRows = %v", out)
	}
	y := []float32{1, 1}
	AXPY(2, []float32{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("AXPY = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Errorf("Scale = %v", y)
	}
}

func TestGlorotRange(t *testing.T) {
	m := New(50, 50)
	m.Glorot(rng.New(5))
	limit := math.Sqrt(6.0 / 100)
	nonzero := 0
	for _, v := range m.Data {
		if math.Abs(float64(v)) > limit+1e-6 {
			t.Fatalf("Glorot value %v beyond limit %v", v, limit)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < len(m.Data)/2 {
		t.Error("Glorot left most weights zero")
	}
}

func TestCloneAndZero(t *testing.T) {
	m := FromData(1, 2, []float32{1, 2})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Error("Clone aliases original")
	}
	m.Zero()
	if m.Data[1] != 0 {
		t.Error("Zero failed")
	}
}

// quadratic loss f(x) = Σ (x_i - t_i)^2 for optimizer tests.
func quadraticStep(p *Param, target []float32) float64 {
	var loss float64
	for i, v := range p.Value.Data {
		d := v - target[i]
		loss += float64(d * d)
		p.Grad.Data[i] += 2 * d
	}
	return loss
}

func TestAdamMinimizesQuadratic(t *testing.T) {
	p := NewParam(1, 4)
	copy(p.Value.Data, []float32{5, -3, 2, 8})
	target := []float32{1, 1, 1, 1}
	opt := NewAdam(0.1, []*Param{p})
	first := quadraticStep(p, target)
	opt.Step()
	var last float64
	for i := 0; i < 300; i++ {
		last = quadraticStep(p, target)
		opt.Step()
	}
	if last > first/100 {
		t.Errorf("Adam barely converged: %v -> %v", first, last)
	}
}

func TestStepClearsGradients(t *testing.T) {
	p := NewParam(1, 2)
	p.Grad.Data[0] = 3
	NewAdam(0.01, []*Param{p}).Step()
	if p.Grad.Data[0] != 0 {
		t.Error("Adam.Step left gradients")
	}
}

func BenchmarkMatMul128(b *testing.B) {
	r := rng.New(6)
	x := randomMatrix(128, 128, r)
	y := randomMatrix(128, 128, r)
	out := New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(out, x, y)
	}
}

// TestParallelMatMulMatchesSerial exercises the parallel path (above the
// flop threshold) against the naive reference.
func TestParallelMatMulMatchesSerial(t *testing.T) {
	r := rng.New(7)
	a, b := randomMatrix(256, 128, r), randomMatrix(128, 128, r)
	got := New(256, 128)
	MatMul(got, a, b) // 256*128*128 > threshold: parallel
	if !matricesClose(got, naiveMatMul(a, b), 2e-3) {
		t.Error("parallel MatMul != naive")
	}
	// ABT parallel path.
	c := randomMatrix(256, 128, r)
	d := randomMatrix(200, 128, r)
	gotABT := New(256, 200)
	MatMulABT(gotABT, c, d)
	dt := New(128, 200)
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			dt.Set(j, i, d.At(i, j))
		}
	}
	if !matricesClose(gotABT, naiveMatMul(c, dt), 2e-3) {
		t.Error("parallel MatMulABT != naive")
	}
}

// TestParallelMatMulATBMatchesSerial pins the column-partitioned aᵀ@b
// against the single-band serial pass: every dst element folds over k in
// the same order, so the parallel result must be bitwise identical — not
// merely close — including around the aki==0 sparsity skip.
func TestParallelMatMulATBMatchesSerial(t *testing.T) {
	r := rng.New(9)
	// 256*128*128 flops clears parallelThreshold, so MatMulATB fans out.
	a, b := randomMatrix(256, 128, r), randomMatrix(256, 128, r)
	// Zeros exercise the skip on both paths (ReLU'd activations are the
	// real callers, so sparsity is the common case).
	for i := range a.Data {
		if i%3 == 0 {
			a.Data[i] = 0
		}
	}
	got := New(128, 128)
	MatMulATB(got, a, b)
	want := New(128, 128)
	matMulATBCols(want, a, b, 0, a.Cols)
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("parallel MatMulATB != serial at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
	// And both agree with the transpose-based naive reference.
	at := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	if !matricesClose(got, naiveMatMul(at, b), 2e-3) {
		t.Error("parallel MatMulATB != naive")
	}
}

// TestParallelMatMulDeterministic: row partitioning must be bitwise
// reproducible across runs.
func TestParallelMatMulDeterministic(t *testing.T) {
	r := rng.New(8)
	a, b := randomMatrix(300, 120, r), randomMatrix(120, 90, r)
	x, y := New(300, 90), New(300, 90)
	MatMul(x, a, b)
	MatMul(y, a, b)
	for i := range x.Data {
		if x.Data[i] != y.Data[i] {
			t.Fatalf("parallel MatMul not bitwise deterministic at %d", i)
		}
	}
}

// The kernels' contract, spelled out per output element: one float32
// accumulator from +0, k ascending. MatMul and MatMulATB skip k where the
// a factor is zero (so a zero hides an Inf or NaN opposite it); MatMulABT
// multiplies everything. The references below are that sentence and
// nothing else; the kernels must match them with ==.

func refMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var acc float32
			for k := 0; k < a.Cols; k++ {
				if a.At(i, k) != 0 {
					acc += a.At(i, k) * b.At(k, j)
				}
			}
			out.Set(i, j, acc)
		}
	}
	return out
}

func refMatMulATB(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var acc float32
			for k := 0; k < a.Rows; k++ {
				if a.At(k, i) != 0 {
					acc += a.At(k, i) * b.At(k, j)
				}
			}
			out.Set(i, j, acc)
		}
	}
	return out
}

func refMatMulABT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var acc float32
			for k := 0; k < a.Cols; k++ {
				acc += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, acc)
		}
	}
	return out
}

// sameBits reports the first element whose bit pattern differs (NaN
// payloads and the sign of zero included), or -1.
func sameBits(got, want *Matrix) int {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return 0
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			return i
		}
	}
	return -1
}

// sprinkleZeros zeroes about pct percent of m.
func sprinkleZeros(m *Matrix, pct int, r *rng.Rand) {
	for i := range m.Data {
		if r.Intn(100) < pct {
			m.Data[i] = 0
		}
	}
}

func TestKernelsExactFoldOrder(t *testing.T) {
	inf := float32(math.Inf(1))
	type product struct {
		name string
		// operands builds this variant's storage of the logical
		// rows×K @ K×cols product.
		operands func(rows, k, cols int, r *rng.Rand) (a, b *Matrix)
		// opposite returns the b index multiplied with a.Data[ai] for
		// output column 0.
		opposite func(a, b *Matrix, ai int) int
		run      func(dst, a, b *Matrix)
		ref      func(a, b *Matrix) *Matrix
		skips    bool
	}
	products := []product{
		{
			name: "MatMul",
			operands: func(rows, k, cols int, r *rng.Rand) (*Matrix, *Matrix) {
				return randomMatrix(rows, k, r), randomMatrix(k, cols, r)
			},
			opposite: func(a, b *Matrix, ai int) int { return (ai % a.Cols) * b.Cols },
			run:      MatMul, ref: refMatMul, skips: true,
		},
		{
			name: "MatMulATB",
			operands: func(rows, k, cols int, r *rng.Rand) (*Matrix, *Matrix) {
				return randomMatrix(k, rows, r), randomMatrix(k, cols, r)
			},
			opposite: func(a, b *Matrix, ai int) int { return (ai / a.Cols) * b.Cols },
			run:      MatMulATB, ref: refMatMulATB, skips: true,
		},
		{
			name: "MatMulABT",
			operands: func(rows, k, cols int, r *rng.Rand) (*Matrix, *Matrix) {
				return randomMatrix(rows, k, r), randomMatrix(cols, k, r)
			},
			opposite: func(a, b *Matrix, ai int) int { return ai % a.Cols },
			run:      MatMulABT, ref: refMatMulABT, skips: false,
		},
	}
	// Every tail of the 4-wide blocks, rows below GOMAXPROCS (1 row) and
	// empty operands; all of these sit below parallelThreshold.
	sizes := []int{0, 1, 3, 4, 5, 63, 64, 65}
	type shape struct{ rows, k, cols int }
	var shapes []shape
	for _, rows := range sizes {
		for _, k := range sizes {
			for _, cols := range sizes {
				shapes = append(shapes, shape{rows, k, cols})
			}
		}
	}
	// Above the threshold (fanned out), with uneven chunks and tails.
	for _, s := range []shape{{261, 129, 67}, {67, 261, 129}, {3, 1031, 1027}, {1027, 5, 1031}} {
		if s.rows*s.k*s.cols < parallelThreshold {
			t.Fatalf("shape %v is below parallelThreshold", s)
		}
		shapes = append(shapes, s)
	}
	// Once per arm: the Go loops and, where the CPU has it, AVX2.
	forEachArm(t, func(t *testing.T) {
		r := rng.New(10)
		for _, p := range products {
			for _, s := range shapes {
				for _, pct := range []int{0, 33, 100} {
					a, b := p.operands(s.rows, s.k, s.cols, r)
					sprinkleZeros(a, pct, r)
					// An Inf in b opposite a zero in a: the skipping products
					// must not see it, MatMulABT must turn it into NaN exactly
					// as the reference does.
					for ai, v := range a.Data {
						if v == 0 && len(b.Data) > 0 {
							b.Data[p.opposite(a, b, ai)] = inf
							break
						}
					}
					want := p.ref(a, b)
					got := New(want.Rows, want.Cols)
					for i := range got.Data {
						got.Data[i] = float32(math.NaN()) // dst is overwritten, not accumulated into
					}
					p.run(got, a, b)
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("%s %dx%dx%d zeros %d%%: element %d = %v, reference %v",
							p.name, s.rows, s.k, s.cols, pct, i, got.Data[i], want.Data[i])
					}
					if p.skips && pct == 100 {
						for i, v := range got.Data {
							if math.Float32bits(v) != 0 {
								t.Fatalf("%s %dx%dx%d all-zero a: element %d = %v, want +0", p.name, s.rows, s.k, s.cols, i, v)
							}
						}
					}
				}
			}
		}
	})
}

// TestParallelRowsCoversEveryRowOnce checks the chunking, the caller's
// own chunk included, at row counts around the worker count.
func TestParallelRowsCoversEveryRowOnce(t *testing.T) {
	visit := func(dst, _, _ *Matrix, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst.Data[i]++ // rows are owned by one chunk: -race sees any overlap
		}
	}
	for _, procs := range []int{1, 2, 3, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for n := 0; n <= 3*procs+1; n++ {
			hits := New(n, 1)
			parallelRows(parallelThreshold, n, visit, hits, nil, nil)
			for i, h := range hits.Data {
				if h != 1 {
					t.Errorf("GOMAXPROCS %d, n %d: row %d visited %v times", procs, n, i, h)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestSerialProductsAllocateNothing pins the fan-out harness at zero
// allocations whenever it does not fan out: below the threshold, and on
// one core at any size.
func TestSerialProductsAllocateNothing(t *testing.T) {
	r := rng.New(13)
	small := func() (*Matrix, *Matrix, *Matrix) {
		return New(8, 8), randomMatrix(8, 8, r), randomMatrix(8, 8, r)
	}
	dst, a, b := small()
	if n := testing.AllocsPerRun(10, func() { MatMul(dst, a, b); MatMulATB(dst, a, b); MatMulABT(dst, a, b) }); n != 0 {
		t.Errorf("products below the threshold allocate %v/op", n)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dst, a, b = New(256, 128), randomMatrix(256, 128, r), randomMatrix(128, 128, r)
	if n := testing.AllocsPerRun(10, func() { MatMul(dst, a, b) }); n != 0 {
		t.Errorf("a large product on one core allocates %v/op", n)
	}
}

// kernelShapes are the two live first-layer products (rows×K @ K×cols):
// train-inline's GraphSAGE step and train-factored's GCN step.
var kernelShapes = []struct {
	name          string
	rows, k, cols int
}{
	{"1400x64x64", 1400, 64, 64},
	{"600x256x32", 600, 256, 32},
}

// BenchmarkKernels reports GFLOP/s (2 flops per multiply-add) for the
// three products at the live shapes, on each kernel arm (the Go loops and
// AVX2; MatMulABT has no AVX2 arm yet, so there the two read the same) at
// GOMAXPROCS 1 and 2.
func BenchmarkKernels(b *testing.B) {
	r := rng.New(11)
	cpuHasAVX2 := useAVX2
	defer func() { useAVX2 = cpuHasAVX2 }()
	for _, s := range kernelShapes {
		x, w := randomMatrix(s.rows, s.k, r), randomMatrix(s.k, s.cols, r)
		g := randomMatrix(s.rows, s.cols, r)
		out, wg, gx := New(s.rows, s.cols), New(s.k, s.cols), New(s.rows, s.k)
		kernels := []struct {
			name string
			run  func()
		}{
			{"MatMul", func() { MatMul(out, x, w) }},      // forward: x @ W
			{"MatMulATB", func() { MatMulATB(wg, x, g) }}, // weight gradient: xᵀ @ gradOut
			{"MatMulABT", func() { MatMulABT(gx, g, w) }}, // input gradient: gradOut @ Wᵀ
		}
		for _, k := range kernels {
			for _, arm := range []string{"go", "avx2"} {
				for _, procs := range []int{1, 2} {
					b.Run(fmt.Sprintf("%s/%s/arm=%s/procs=%d", k.name, s.name, arm, procs), func(b *testing.B) {
						if arm == "avx2" && !cpuHasAVX2 {
							b.Skip("no AVX2 arm on this CPU")
						}
						useAVX2 = arm == "avx2"
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							k.run()
						}
						flops := 2 * float64(s.rows) * float64(s.k) * float64(s.cols) * float64(b.N)
						b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
					})
				}
			}
		}
	}
}

// BenchmarkFanOut is the measurement behind parallelThreshold: n×64 @
// 64×64 run serially and fanned out regardless of size, for n·64·64
// multiply-adds from a quarter of the constant to 4 times it.
func BenchmarkFanOut(b *testing.B) {
	r := rng.New(12)
	for _, madds := range []int{1 << 19, 1 << 20, 3 << 19, 1 << 21, 1 << 22, 1 << 23} {
		rows := madds / (64 * 64)
		x, w, out := randomMatrix(rows, 64, r), randomMatrix(64, 64, r), New(rows, 64)
		b.Run(fmt.Sprintf("madds=%d/serial", madds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matMulRows(out, x, w, 0, rows)
			}
		})
		b.Run(fmt.Sprintf("madds=%d/fanned", madds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parallelRows(parallelThreshold, rows, matMulRows, out, x, w)
			}
		})
	}
}
