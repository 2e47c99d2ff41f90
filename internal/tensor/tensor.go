// Package tensor is a minimal float32 dense matrix library: just enough to
// run real GCN/GraphSAGE/PinSAGE forward and backward passes on CPU for the
// convergence experiment (§7.7, Fig 16). It is not a general autograd
// system — internal/nn writes its backward passes by hand against these
// primitives.
package tensor

import (
	"fmt"
	"math"

	"gnnlab/internal/rng"
)

// Matrix is a row-major rows×cols float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromData wraps data (not copied) as a rows×cols matrix.
func FromData(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d×%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Reuse reshapes m to rows×cols, keeping the backing array when its
// capacity suffices (contents are then stale — callers must overwrite or
// zero) and reallocating otherwise. It reports whether the backing array
// had to grow; a zero Matrix behaves like New minus the zeroing.
func (m *Matrix) Reuse(rows, cols int) (grew bool) {
	if rows < 0 || cols < 0 {
		panic("tensor: negative dimension")
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float32, n)
		grew = true
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
	return grew
}

// Row returns row i as a slice aliasing the matrix.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set stores element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero clears all elements.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Glorot initializes with Glorot/Xavier uniform values.
func (m *Matrix) Glorot(r *rng.Rand) {
	limit := float32(math.Sqrt(6 / float64(m.Rows+m.Cols)))
	for i := range m.Data {
		m.Data[i] = (2*float32(r.Float64()) - 1) * limit
	}
}

// MatMul computes dst = a @ b, overwriting dst. Shapes must agree
// (a: n×k, b: k×m, dst: n×m); dst must not alias a or b.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shapes (%d×%d)@(%d×%d)->(%d×%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	// ikj loop order keeps the inner loop streaming over rows of b; large
	// products partition output rows across cores (bitwise identical to
	// the serial result).
	parallelRows(a.Rows*a.Cols*b.Cols, a.Rows, matMulRows, dst, a, b)
}

// MatMulATB computes dst = aᵀ @ b (a: k×n, b: k×m, dst: n×m). Large
// products partition dst rows (= a columns) across cores; each output
// element folds over k in the same order either way, so the result is
// bitwise identical to the serial computation.
func MatMulATB(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATB shapes (%d×%d)ᵀ@(%d×%d)->(%d×%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	parallelRows(a.Rows*a.Cols*b.Cols, a.Cols, matMulATBCols, dst, a, b)
}

// MatMulABT computes dst = a @ bᵀ (a: n×k, b: m×k, dst: n×m).
func MatMulABT(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulABT shapes (%d×%d)@(%d×%d)ᵀ->(%d×%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	parallelRows(a.Rows*a.Cols*b.Rows, a.Rows, matMulABTRows, dst, a, b)
}

// AddBiasRows adds bias (1×cols) to every row of m in place.
func AddBiasRows(m *Matrix, bias []float32) {
	if len(bias) != m.Cols {
		panic("tensor: bias length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		for j := range r {
			r[j] += bias[j]
		}
	}
}

// ReLU applies x > 0 ? x : +0 in place (NaN and −0 become +0). The
// backward pass reads the result back instead of a mask.
func ReLU(m *Matrix) {
	if useAVX2 {
		reluAVX2(m.Data)
		return
	}
	for i, v := range m.Data {
		if !(v > 0) {
			m.Data[i] = 0
		}
	}
}

// ReLUBackward zeroes grad entries whose forward activation was clipped:
// out is ReLU's result, unchanged since, so the activation was active
// exactly where out > 0.
func ReLUBackward(grad, out *Matrix) {
	if len(out.Data) != len(grad.Data) {
		panic("tensor: ReLUBackward length mismatch")
	}
	if useAVX2 {
		reluBackwardAVX2(grad.Data, out.Data)
		return
	}
	for i, v := range out.Data {
		if !(v > 0) {
			grad.Data[i] = 0
		}
	}
}

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// against labels and the gradient w.r.t. logits (written into gradOut,
// same shape as logits). It returns (loss, correct-count).
func SoftmaxCrossEntropy(logits *Matrix, labels []int32, gradOut *Matrix) (float64, int) {
	if len(labels) != logits.Rows || gradOut.Rows != logits.Rows || gradOut.Cols != logits.Cols {
		panic("tensor: SoftmaxCrossEntropy shape mismatch")
	}
	var loss float64
	correct := 0
	invN := 1 / float32(logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		grad := gradOut.Row(i)
		maxv := row[0]
		argmax := 0
		for j, v := range row {
			if v > maxv {
				maxv = v
				argmax = j
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		logSum := math.Log(sum)
		y := int(labels[i])
		loss += logSum - float64(row[y]-maxv)
		if argmax == y {
			correct++
		}
		for j, v := range row {
			p := float32(math.Exp(float64(v-maxv)) / sum)
			if j == y {
				p -= 1
			}
			grad[j] = p * invN
		}
	}
	return loss / float64(logits.Rows), correct
}

// SumRows accumulates the column-wise sum of m into out (len cols).
func SumRows(m *Matrix, out []float32) {
	if len(out) != m.Cols {
		panic("tensor: SumRows length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		for j := range r {
			out[j] += r[j]
		}
	}
}

// AXPY computes y += alpha*x elementwise over equal-length slices.
func AXPY(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: AXPY length mismatch")
	}
	if useAVX2 {
		axpyAVX2(alpha, x, y)
		return
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies every element by alpha.
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}
