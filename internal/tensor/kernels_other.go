//go:build !amd64

package tensor

// useAVX2 is false off amd64: the Go loops are the only arm, and the
// assembly stubs below are never called.
var useAVX2 = false

func axpyBlockAVX2(d []float32, a *[8]float32, b *[8][]float32) { panic("tensor: no AVX2 arm") }
func axpyAVX2(alpha float32, x, y []float32)                    { panic("tensor: no AVX2 arm") }
func reluAVX2(x []float32)                                      { panic("tensor: no AVX2 arm") }
func reluBackwardAVX2(grad, out []float32)                      { panic("tensor: no AVX2 arm") }
