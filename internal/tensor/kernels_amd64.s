#include "textflag.h"

// AVX2 arms of axpyBlock, AXPY, ReLU and ReLUBackward. Each vector lane is
// one output element, so vectorising across output columns leaves every
// element's chain as the Go loop folds it: a multiply rounded on its own
// (VMULPS), then an add (VADDPS), in k order. There is deliberately no
// fused multiply-add anywhere: it rounds once where the Go loop rounds
// twice, and the results are pinned bit for bit. Tails shorter than a
// register run the same sequence on scalars (VMULSS, VADDSS). Loads and
// stores are unaligned-safe (VMOVUPS, memory operands of VEX ops).

// MADD4 folds one k term into the four accumulators Y0..Y3: Y4..Y7 =
// coef·b[j..j+32), then acc += product.
#define MADD4(bp, coef) \
	VMULPS 0(bp)(AX*4), coef, Y4  \
	VMULPS 32(bp)(AX*4), coef, Y5 \
	VMULPS 64(bp)(AX*4), coef, Y6 \
	VMULPS 96(bp)(AX*4), coef, Y7 \
	VADDPS Y4, Y0, Y0             \
	VADDPS Y5, Y1, Y1             \
	VADDPS Y6, Y2, Y2             \
	VADDPS Y7, Y3, Y3

// MADD1 folds one k term into the accumulator Y0 (eight columns).
#define MADD1(bp, coef) \
	VMULPS (bp)(AX*4), coef, Y4 \
	VADDPS Y4, Y0, Y0

// MADDS folds one k term into the scalar accumulator X0.
#define MADDS(bp, coef) \
	VMULSS (bp)(AX*4), coef, X4 \
	VADDSS X4, X0, X0

// func axpyBlockAVX2(d []float32, a *[8]float32, b *[8][]float32)
TEXT ·axpyBlockAVX2(SB), NOSPLIT, $0-40
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ a+24(FP), AX
	MOVQ b+32(FP), SI
	VBROADCASTSS 0(AX), Y8
	VBROADCASTSS 4(AX), Y9
	VBROADCASTSS 8(AX), Y10
	VBROADCASTSS 12(AX), Y11
	VBROADCASTSS 16(AX), Y12
	VBROADCASTSS 20(AX), Y13
	VBROADCASTSS 24(AX), Y14
	VBROADCASTSS 28(AX), Y15

	// Row base pointers: b[c] is a slice header, 24 bytes apart.
	MOVQ 0(SI), BX
	MOVQ 24(SI), DX
	MOVQ 48(SI), R8
	MOVQ 72(SI), R9
	MOVQ 96(SI), R10
	MOVQ 120(SI), R11
	MOVQ 144(SI), R12
	MOVQ 168(SI), R13
	XORQ AX, AX

block32:
	LEAQ 32(AX), SI
	CMPQ SI, CX
	JGT  block8
	VMOVUPS 0(DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1
	VMOVUPS 64(DI)(AX*4), Y2
	VMOVUPS 96(DI)(AX*4), Y3
	MADD4(BX, Y8)
	MADD4(DX, Y9)
	MADD4(R8, Y10)
	MADD4(R9, Y11)
	MADD4(R10, Y12)
	MADD4(R11, Y13)
	MADD4(R12, Y14)
	MADD4(R13, Y15)
	VMOVUPS Y0, 0(DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMOVUPS Y3, 96(DI)(AX*4)
	MOVQ SI, AX
	JMP  block32

block8:
	LEAQ 8(AX), SI
	CMPQ SI, CX
	JGT  tail
	VMOVUPS (DI)(AX*4), Y0
	MADD1(BX, Y8)
	MADD1(DX, Y9)
	MADD1(R8, Y10)
	MADD1(R9, Y11)
	MADD1(R10, Y12)
	MADD1(R11, Y13)
	MADD1(R12, Y14)
	MADD1(R13, Y15)
	VMOVUPS Y0, (DI)(AX*4)
	MOVQ SI, AX
	JMP  block8

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSS (DI)(AX*4), X0
	MADDS(BX, X8)
	MADDS(DX, X9)
	MADDS(R8, X10)
	MADDS(R9, X11)
	MADDS(R10, X12)
	MADDS(R11, X13)
	MADDS(R12, X14)
	MADDS(R13, X15)
	VMOVSS X0, (DI)(AX*4)
	INCQ AX
	JMP  tail

done:
	VZEROUPPER
	RET

// func axpyAVX2(alpha float32, x, y []float32)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSS alpha+0(FP), Y8
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ y_len+40(FP), CX
	XORQ AX, AX

block32:
	LEAQ 32(AX), DX
	CMPQ DX, CX
	JGT  block8
	VMOVUPS 0(DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1
	VMOVUPS 64(DI)(AX*4), Y2
	VMOVUPS 96(DI)(AX*4), Y3
	MADD4(SI, Y8)
	VMOVUPS Y0, 0(DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMOVUPS Y3, 96(DI)(AX*4)
	MOVQ DX, AX
	JMP  block32

block8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JGT  tail
	VMOVUPS (DI)(AX*4), Y0
	MADD1(SI, Y8)
	VMOVUPS Y0, (DI)(AX*4)
	MOVQ DX, AX
	JMP  block8

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSS (DI)(AX*4), X0
	MADDS(SI, X8)
	VMOVSS X0, (DI)(AX*4)
	INCQ AX
	JMP  tail

done:
	VZEROUPPER
	RET

// func reluAVX2(x []float32)
//
// VMAXPS returns its second source unless the first is greater, so with
// x first and +0 second it is exactly x > 0 ? x : +0: NaN and −0 both
// become +0.
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	VXORPS Y15, Y15, Y15
	XORQ AX, AX

block8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JGT  tail
	VMOVUPS (DI)(AX*4), Y0
	VMAXPS Y15, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	MOVQ DX, AX
	JMP  block8

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSS (DI)(AX*4), X0
	VMAXSS X15, X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ AX
	JMP  tail

done:
	VZEROUPPER
	RET

// func reluBackwardAVX2(grad, out []float32)
//
// The mask is out > 0 (ordered, so false on NaN); grad & mask keeps a
// gradient's bits or writes +0.
TEXT ·reluBackwardAVX2(SB), NOSPLIT, $0-48
	MOVQ grad_base+0(FP), DI
	MOVQ grad_len+8(FP), CX
	MOVQ out_base+24(FP), SI
	VXORPS Y15, Y15, Y15
	XORQ AX, AX

block8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JGT  tail
	VMOVUPS (SI)(AX*4), Y0
	VCMPPS $0x1e, Y15, Y0, Y1
	VANDPS (DI)(AX*4), Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	MOVQ DX, AX
	JMP  block8

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSS (SI)(AX*4), X0
	VCMPSS $0x1e, X15, X0, X1
	VMOVSS (DI)(AX*4), X2
	VANDPS X2, X1, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ AX
	JMP  tail

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
