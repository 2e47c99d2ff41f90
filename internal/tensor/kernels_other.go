//go:build !amd64

package tensor

// useAVX2 is false off amd64: the Go loops are the only arm, and the
// assembly stubs below are never called.
var useAVX2 = false

func panelAVX2(d, a []float32, aStride, k int, b []float32, bStride int, skipZeros bool) {
	panic("tensor: no AVX2 arm")
}
func panelRowsAVX2(d, a []float32, aStride int, rows []int32, b []float32, bStride int) {
	panic("tensor: no AVX2 arm")
}
func axpyAVX2(alpha float32, x, y []float32) { panic("tensor: no AVX2 arm") }
func scaleAVX2(alpha float32, x []float32)   { panic("tensor: no AVX2 arm") }
func reluAVX2(x []float32)                   { panic("tensor: no AVX2 arm") }
func reluBackwardAVX2(grad, out []float32)   { panic("tensor: no AVX2 arm") }
