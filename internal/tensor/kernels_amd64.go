package tensor

// useAVX2 selects the assembly arms of panel, AXPY, ReLU and
// ReLUBackward (kernels_amd64.s). It is read from the CPU once: a default
// GOAMD64=v1 binary may run on a CPU without AVX2, where the Go loops —
// which are also the reference the assembly is tested against — run
// instead. Both arms produce the same bits.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU has AVX and AVX2 and the OS saves the
// YMM registers across context switches.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// Each assembly arm touches the first len(y) (AXPY), len(x) (ReLU) or
// len(grad) (ReLUBackward) elements of its slices, or, for panel, d and
// the K strided elements of a and rows of b that panel's bounds proof
// covers; the Go wrappers check the other lengths first. noescape keeps
// the callers' operands off the heap.

//go:noescape
func panelAVX2(d, a []float32, aStride, k int, b []float32, bStride int, skipZeros bool)

//go:noescape
func axpyAVX2(alpha float32, x, y []float32)

//go:noescape
func reluAVX2(x []float32)

//go:noescape
func reluBackwardAVX2(grad, out []float32)
