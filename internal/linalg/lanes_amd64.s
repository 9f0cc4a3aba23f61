#include "textflag.h"

// AVX2 tiles of the feature-major dense products (lanes.go). Each lane
// holds one output element and adds its products one at a time in the
// reference order, rounding after the multiply (VMULPD) and after the
// add (VADDPD): never a fused VFMADD, so every element carries the bits
// of MulNTRangeRef and MulTNRangeRef. Strides are in float64 elements;
// the Go wrappers check every slice covers its tile.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func scores8(a *float64, lda int, w *float64, ldw int, p int, s *float64, lds int)
//
// s[r*lds+c] = Σ_j a[r*lda+j]·w[j*ldw+c] for rows r < 4 and classes
// c < 8, j increasing, each sum starting at +0.
TEXT ·scores8(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), AX
	SHLQ $3, AX
	MOVQ w+16(FP), DI
	MOVQ ldw+24(FP), BX
	SHLQ $3, BX
	MOVQ p+32(FP), CX
	LEAQ (SI)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ R12, R12
	TESTQ CX, CX
	JEQ scores8store

scores8loop:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VBROADCASTSD (SI)(R12*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y9, Y10, Y12
	VADDPD Y12, Y1, Y1
	VBROADCASTSD (R9)(R12*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y2, Y2
	VMULPD Y9, Y10, Y12
	VADDPD Y12, Y3, Y3
	VBROADCASTSD (R10)(R12*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y4, Y4
	VMULPD Y9, Y10, Y12
	VADDPD Y12, Y5, Y5
	VBROADCASTSD (R11)(R12*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y6, Y6
	VMULPD Y9, Y10, Y12
	VADDPD Y12, Y7, Y7
	ADDQ $8, R12
	ADDQ BX, DI
	DECQ CX
	JNE scores8loop

scores8store:
	MOVQ s+40(FP), DX
	MOVQ lds+48(FP), R8
	SHLQ $3, R8
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ R8, DX
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, 32(DX)
	ADDQ R8, DX
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	ADDQ R8, DX
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)
	VZEROUPPER
	RET

// func scores4(a *float64, lda int, w *float64, ldw int, p int, s *float64, lds int, mask *[4]int64)
//
// scores8 for the classes whose mask lanes are set (a prefix of 1–4):
// masked-off lanes are neither loaded nor stored.
TEXT ·scores4(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), AX
	SHLQ $3, AX
	MOVQ w+16(FP), DI
	MOVQ ldw+24(FP), BX
	SHLQ $3, BX
	MOVQ p+32(FP), CX
	MOVQ mask+56(FP), DX
	VMOVDQU (DX), Y15
	LEAQ (SI)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ R12, R12
	TESTQ CX, CX
	JEQ scores4store

scores4loop:
	VMASKMOVPD (DI), Y15, Y8
	VBROADCASTSD (SI)(R12*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VBROADCASTSD (R9)(R12*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y1, Y1
	VBROADCASTSD (R10)(R12*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y2, Y2
	VBROADCASTSD (R11)(R12*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y3, Y3
	ADDQ $8, R12
	ADDQ BX, DI
	DECQ CX
	JNE scores4loop

scores4store:
	MOVQ s+40(FP), DX
	MOVQ lds+48(FP), R8
	SHLQ $3, R8
	VMASKMOVPD Y0, Y15, (DX)
	ADDQ R8, DX
	VMASKMOVPD Y1, Y15, (DX)
	ADDQ R8, DX
	VMASKMOVPD Y2, Y15, (DX)
	ADDQ R8, DX
	VMASKMOVPD Y3, Y15, (DX)
	VZEROUPPER
	RET

// func accum8(a *float64, lda int, d *float64, ldd int, p int, gt *float64, ldg int)
//
// gt[j*ldg+c] += d[r*ldd+c]·a[r*lda+j] for j < p and classes c < 8, the
// four rows r added in increasing order. The 4×8 d tile stays in
// registers.
TEXT ·accum8(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), AX
	SHLQ $3, AX
	MOVQ d+16(FP), DX
	MOVQ ldd+24(FP), R8
	SHLQ $3, R8
	MOVQ p+32(FP), CX
	MOVQ gt+40(FP), DI
	MOVQ ldg+48(FP), BX
	SHLQ $3, BX
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	ADDQ R8, DX
	VMOVUPD (DX), Y2
	VMOVUPD 32(DX), Y3
	ADDQ R8, DX
	VMOVUPD (DX), Y4
	VMOVUPD 32(DX), Y5
	ADDQ R8, DX
	VMOVUPD (DX), Y6
	VMOVUPD 32(DX), Y7
	LEAQ (SI)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	XORQ R12, R12
	TESTQ CX, CX
	JEQ accum8done

accum8loop:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VBROADCASTSD (SI)(R12*1), Y10
	VMULPD Y0, Y10, Y11
	VADDPD Y11, Y8, Y8
	VMULPD Y1, Y10, Y12
	VADDPD Y12, Y9, Y9
	VBROADCASTSD (R9)(R12*1), Y10
	VMULPD Y2, Y10, Y11
	VADDPD Y11, Y8, Y8
	VMULPD Y3, Y10, Y12
	VADDPD Y12, Y9, Y9
	VBROADCASTSD (R10)(R12*1), Y10
	VMULPD Y4, Y10, Y11
	VADDPD Y11, Y8, Y8
	VMULPD Y5, Y10, Y12
	VADDPD Y12, Y9, Y9
	VBROADCASTSD (R11)(R12*1), Y10
	VMULPD Y6, Y10, Y11
	VADDPD Y11, Y8, Y8
	VMULPD Y7, Y10, Y12
	VADDPD Y12, Y9, Y9
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	ADDQ $8, R12
	ADDQ BX, DI
	DECQ CX
	JNE accum8loop

accum8done:
	VZEROUPPER
	RET

// func accum4(a *float64, lda int, d *float64, ldd int, p int, gt *float64, ldg int, mask *[4]int64)
//
// accum8 for the classes whose mask lanes are set (a prefix of 1–4).
TEXT ·accum4(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), AX
	SHLQ $3, AX
	MOVQ d+16(FP), DX
	MOVQ ldd+24(FP), R8
	SHLQ $3, R8
	MOVQ p+32(FP), CX
	MOVQ gt+40(FP), DI
	MOVQ ldg+48(FP), BX
	SHLQ $3, BX
	MOVQ mask+56(FP), R13
	VMOVDQU (R13), Y15
	VMASKMOVPD (DX), Y15, Y0
	ADDQ R8, DX
	VMASKMOVPD (DX), Y15, Y1
	ADDQ R8, DX
	VMASKMOVPD (DX), Y15, Y2
	ADDQ R8, DX
	VMASKMOVPD (DX), Y15, Y3
	LEAQ (SI)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	XORQ R12, R12
	TESTQ CX, CX
	JEQ accum4done

accum4loop:
	VMASKMOVPD (DI), Y15, Y8
	VBROADCASTSD (SI)(R12*1), Y10
	VMULPD Y0, Y10, Y11
	VADDPD Y11, Y8, Y8
	VBROADCASTSD (R9)(R12*1), Y10
	VMULPD Y1, Y10, Y11
	VADDPD Y11, Y8, Y8
	VBROADCASTSD (R10)(R12*1), Y10
	VMULPD Y2, Y10, Y11
	VADDPD Y11, Y8, Y8
	VBROADCASTSD (R11)(R12*1), Y10
	VMULPD Y3, Y10, Y11
	VADDPD Y11, Y8, Y8
	VMASKMOVPD Y8, Y15, (DI)
	ADDQ $8, R12
	ADDQ BX, DI
	DECQ CX
	JNE accum4loop

accum4done:
	VZEROUPPER
	RET
