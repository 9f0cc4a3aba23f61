#include "textflag.h"

// AVX2 row kernels of the feature-major CSR products (csr.go). The
// classes sit in ymm lanes: one call reads a row's nonzeros once for
// `full` (0 or 4) full vectors of classes and then one vector masked to
// a 0–4-lane prefix, so 1–4 or 16–20 classes. Each lane adds its
// products in nonzero order, rounding after the multiply (VMULPD) and
// after the add (VADDPD), never fused, so every element carries the bits
// of the Go passes and the *Ref loops. ld is the class stride in
// float64 elements. Each column is checked against p before it is used:
// on the first one outside [0, p) the kernel returns false. The Go
// wrapper slices the strided operand to p rows and never calls with
// nnz = 0.

// func csrDot(cols *int, vals *float64, nnz int, w *float64, s *float64, ld int, p int, full int, mask *[4]int64) bool
//
// s[c] = Σ_k vals[k]·w[cols[k]*ld+c] over the call's classes, k
// increasing, each sum from +0.
TEXT ·csrDot(SB), NOSPLIT, $0-73
	MOVQ cols+0(FP), SI
	MOVQ vals+8(FP), DI
	MOVQ nnz+16(FP), CX
	MOVQ w+24(FP), DX
	MOVQ ld+40(FP), BX
	SHLQ $3, BX
	MOVQ p+48(FP), R8
	MOVQ full+56(FP), R11
	SHLQ $5, R11
	MOVQ mask+64(FP), R9
	VMOVDQU (R9), Y15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	XORQ R10, R10

dotloop:
	MOVQ (SI)(R10*8), AX
	CMPQ AX, R8
	JAE dotbad
	IMULQ BX, AX
	ADDQ DX, AX
	VBROADCASTSD (DI)(R10*8), Y5
	VMASKMOVPD (AX)(R11*1), Y15, Y6
	VMULPD Y6, Y5, Y6
	VADDPD Y6, Y4, Y4
	TESTQ R11, R11
	JEQ dotnext
	VMULPD (AX), Y5, Y7
	VADDPD Y7, Y0, Y0
	VMULPD 32(AX), Y5, Y8
	VADDPD Y8, Y1, Y1
	VMULPD 64(AX), Y5, Y9
	VADDPD Y9, Y2, Y2
	VMULPD 96(AX), Y5, Y10
	VADDPD Y10, Y3, Y3

dotnext:
	INCQ R10
	CMPQ R10, CX
	JLT dotloop
	MOVQ s+32(FP), AX
	VMASKMOVPD Y4, Y15, (AX)(R11*1)
	TESTQ R11, R11
	JEQ dotdone
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)

dotdone:
	VZEROUPPER
	MOVB $1, ret+72(FP)
	RET

dotbad:
	VZEROUPPER
	MOVB $0, ret+72(FP)
	RET

// func csrAxpy(cols *int, vals *float64, nnz int, gt *float64, d *float64, ld int, p int, full int, mask *[4]int64) bool
//
// gt[cols[k]*ld+c] += d[c]·vals[k] over the call's classes, k
// increasing. The call's classes of d stay in registers.
TEXT ·csrAxpy(SB), NOSPLIT, $0-73
	MOVQ cols+0(FP), SI
	MOVQ vals+8(FP), DI
	MOVQ nnz+16(FP), CX
	MOVQ gt+24(FP), DX
	MOVQ d+32(FP), AX
	MOVQ ld+40(FP), BX
	SHLQ $3, BX
	MOVQ p+48(FP), R8
	MOVQ full+56(FP), R11
	SHLQ $5, R11
	MOVQ mask+64(FP), R9
	VMOVDQU (R9), Y15
	VMASKMOVPD (AX)(R11*1), Y15, Y4
	XORQ R10, R10
	TESTQ R11, R11
	JEQ axpyloop
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3

axpyloop:
	MOVQ (SI)(R10*8), AX
	CMPQ AX, R8
	JAE axpybad
	IMULQ BX, AX
	ADDQ DX, AX
	VBROADCASTSD (DI)(R10*8), Y5
	VMASKMOVPD (AX)(R11*1), Y15, Y6
	VMULPD Y4, Y5, Y7
	VADDPD Y7, Y6, Y6
	VMASKMOVPD Y6, Y15, (AX)(R11*1)
	TESTQ R11, R11
	JEQ axpynext
	VMULPD Y0, Y5, Y6
	VADDPD (AX), Y6, Y6
	VMOVUPD Y6, (AX)
	VMULPD Y1, Y5, Y7
	VADDPD 32(AX), Y7, Y7
	VMOVUPD Y7, 32(AX)
	VMULPD Y2, Y5, Y8
	VADDPD 64(AX), Y8, Y8
	VMOVUPD Y8, 64(AX)
	VMULPD Y3, Y5, Y9
	VADDPD 96(AX), Y9, Y9
	VMOVUPD Y9, 96(AX)

axpynext:
	INCQ R10
	CMPQ R10, CX
	JLT axpyloop
	VZEROUPPER
	MOVB $1, ret+72(FP)
	RET

axpybad:
	VZEROUPPER
	MOVB $0, ret+72(FP)
	RET
