#include "textflag.h"

// AVX2 arms of panel, AXPY, ReLU and ReLUBackward. Each vector lane is one
// output element, so vectorising across output columns leaves every
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

// COEF loads the coefficient a[k] at R12 into every lane of Y8, or jumps
// to skip when it is ±0 and R11 is 0 (the skipping products). With R11 = 1
// the bits shifted left are never zero, so every term is folded.
#define COEF(skip) \
	MOVL (R12), BX \
	ORL  R11, BX   \
	SHLL $1, BX    \
	JZ   skip      \
	VBROADCASTSS (R12), Y8

// PMADD folds coef·b[j+off/4 ..] at R13 into acc, through tmp.
#define PMADD(off, tmp, acc) \
	VMULPS off(R13), Y8, tmp \
	VADDPS tmp, acc, acc

// func panelAVX2(d, a []float32, aStride, k int, b []float32, bStride int, skipZeros bool)
//
// The row is cut into strips of 64, 32, 8 and 1 columns. A strip's
// accumulators are loaded from d, stay in registers across every k and
// are stored once. R12 walks a (aStride apart) and R13 walks the strip's
// columns of b (bStride apart); R9 is where a's walk ends, so panel
// requires aStride >= 1.
TEXT ·panelAVX2(SB), NOSPLIT, $0-97
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ aStride+48(FP), R8
	SHLQ $2, R8
	MOVQ k+56(FP), R9
	IMULQ R8, R9
	ADDQ SI, R9
	MOVQ b_base+64(FP), DX
	MOVQ bStride+88(FP), R10
	SHLQ $2, R10
	MOVBQZX skipZeros+96(FP), R11
	XORQ $1, R11
	XORQ AX, AX

strip64:
	LEAQ 64(AX), BX
	CMPQ BX, CX
	JGT  strip32
	VMOVUPS 0(DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1
	VMOVUPS 64(DI)(AX*4), Y2
	VMOVUPS 96(DI)(AX*4), Y3
	VMOVUPS 128(DI)(AX*4), Y4
	VMOVUPS 160(DI)(AX*4), Y5
	VMOVUPS 192(DI)(AX*4), Y6
	VMOVUPS 224(DI)(AX*4), Y7
	MOVQ SI, R12
	LEAQ (DX)(AX*4), R13
	CMPQ R12, R9
	JEQ  store64

k64:
	COEF(next64)
	PMADD(0, Y9, Y0)
	PMADD(32, Y10, Y1)
	PMADD(64, Y11, Y2)
	PMADD(96, Y12, Y3)
	PMADD(128, Y13, Y4)
	PMADD(160, Y14, Y5)
	PMADD(192, Y15, Y6)
	PMADD(224, Y9, Y7)

next64:
	ADDQ R8, R12
	ADDQ R10, R13
	CMPQ R12, R9
	JNE  k64

store64:
	VMOVUPS Y0, 0(DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMOVUPS Y3, 96(DI)(AX*4)
	VMOVUPS Y4, 128(DI)(AX*4)
	VMOVUPS Y5, 160(DI)(AX*4)
	VMOVUPS Y6, 192(DI)(AX*4)
	VMOVUPS Y7, 224(DI)(AX*4)
	ADDQ $64, AX
	JMP  strip64

strip32:
	LEAQ 32(AX), BX
	CMPQ BX, CX
	JGT  strip8
	VMOVUPS 0(DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1
	VMOVUPS 64(DI)(AX*4), Y2
	VMOVUPS 96(DI)(AX*4), Y3
	MOVQ SI, R12
	LEAQ (DX)(AX*4), R13
	CMPQ R12, R9
	JEQ  store32

k32:
	COEF(next32)
	PMADD(0, Y9, Y0)
	PMADD(32, Y10, Y1)
	PMADD(64, Y11, Y2)
	PMADD(96, Y12, Y3)

next32:
	ADDQ R8, R12
	ADDQ R10, R13
	CMPQ R12, R9
	JNE  k32

store32:
	VMOVUPS Y0, 0(DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMOVUPS Y3, 96(DI)(AX*4)
	ADDQ $32, AX
	JMP  strip32

strip8:
	LEAQ 8(AX), BX
	CMPQ BX, CX
	JGT  strip1
	VMOVUPS (DI)(AX*4), Y0
	MOVQ SI, R12
	LEAQ (DX)(AX*4), R13
	CMPQ R12, R9
	JEQ  store8

k8:
	COEF(next8)
	PMADD(0, Y9, Y0)

next8:
	ADDQ R8, R12
	ADDQ R10, R13
	CMPQ R12, R9
	JNE  k8

store8:
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP  strip8

strip1:
	CMPQ AX, CX
	JGE  done
	VMOVSS (DI)(AX*4), X0
	MOVQ SI, R12
	LEAQ (DX)(AX*4), R13
	CMPQ R12, R9
	JEQ  store1

k1:
	COEF(next1)
	VMULSS (R13), X8, X9
	VADDSS X9, X0, X0

next1:
	ADDQ R8, R12
	ADDQ R10, R13
	CMPQ R12, R9
	JNE  k1

store1:
	VMOVSS X0, (DI)(AX*4)
	INCQ AX
	JMP  strip1

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
