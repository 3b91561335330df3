#include "textflag.h"

// The AVX2 and AVX-512 passes behind matmul.go's kernels, the elementwise
// ops of ops.go and the momentum update of sgd.go. Every lane does what one
// iteration of the Go loop it replaces does, in the same order: each
// product is its own VMULPS (rounded), then its own VADDPS or VSUBPS
// (rounded) — never a fused multiply-add, which rounds once and changes
// bits.

// The AVX-512 passes keep to Z0–Z15 and K1–K6 and end in VZEROUPPER, like
// the AVX2 ones, so no later SSE code pays for dirty upper halves.

// func panel4x32AVX512(dst, coef, src []float32, c, nt, rs, ts int)
// For r < 4 and j < c: dst[r·c+j] += coef[r·rs+t·ts]·src[t·c+j] for t
// ascending from 0 to nt, where the coefficient is not ±0. Each panel of
// 32 columns keeps its 4 × 32 sums in Z0–Z7, loaded from dst and stored
// back once. VCMPPS turns a coefficient into a mask, all ones unless it
// is ±0 (NEQ_UQ: a NaN is kept, as the Go loop keeps it), and the add is
// merge-masked by it, so a skipped term leaves the sum's bits alone even
// when its product is NaN or the sum is −0. The last panel's columns past
// c are masked off (K5, K6) in every load and store, which also keeps
// them from faulting.
TEXT ·panel4x32AVX512(SB), NOSPLIT, $0-104
	MOVQ   dst_base+0(FP), DI
	MOVQ   coef_base+24(FP), SI
	MOVQ   src_base+48(FP), R8
	MOVQ   c+72(FP), BX
	MOVQ   nt+80(FP), DX
	MOVQ   rs+88(FP), R9
	MOVQ   ts+96(FP), R10
	SHLQ   $2, BX               // bytes per row of dst and of src
	SHLQ   $2, R9
	SHLQ   $2, R10
	LEAQ   (R9)(R9*2), R11      // the fourth row's coefficient offset
	VPXORD Z10, Z10, Z10
	XORQ   AX, AX               // the panel's byte offset in a row
	CMPQ   AX, BX
	JGE    paneldone

panel:
	MOVQ  BX, CX
	SUBQ  AX, CX
	SHRQ  $2, CX                // columns left
	MOVL  $-1, R12
	CMPQ  CX, $32
	JGE   panelmask
	MOVL  $1, R12
	SHLL  CX, R12
	DECL  R12                   // the low CX bits

panelmask:
	KMOVW R12, K5
	SHRL  $16, R12
	KMOVW R12, K6
	LEAQ  (DI)(AX*1), R12       // dst rows 0 and 1
	LEAQ  (R12)(BX*2), R13      // dst rows 2 and 3
	VMOVUPS.Z (R12), K5, Z0
	VMOVUPS.Z 64(R12), K6, Z1
	VMOVUPS.Z (R12)(BX*1), K5, Z2
	VMOVUPS.Z 64(R12)(BX*1), K6, Z3
	VMOVUPS.Z (R13), K5, Z4
	VMOVUPS.Z 64(R13), K6, Z5
	VMOVUPS.Z (R13)(BX*1), K5, Z6
	VMOVUPS.Z 64(R13)(BX*1), K6, Z7
	LEAQ  (R8)(AX*1), R13       // src row t
	MOVQ  SI, CX                // coefficient of row 0 for t
	MOVQ  DX, R12               // terms left
	TESTQ R12, R12
	JZ    panelstore

panelterm:
	VMOVUPS.Z    (R13), K5, Z8
	VMOVUPS.Z    64(R13), K6, Z9
	VBROADCASTSS (CX), Z11
	VCMPPS       $4, Z10, Z11, K1
	VMULPS       Z8, Z11, Z12
	VMULPS       Z9, Z11, Z13
	VADDPS       Z12, Z0, K1, Z0
	VADDPS       Z13, Z1, K1, Z1
	VBROADCASTSS (CX)(R9*1), Z11
	VCMPPS       $4, Z10, Z11, K2
	VMULPS       Z8, Z11, Z12
	VMULPS       Z9, Z11, Z13
	VADDPS       Z12, Z2, K2, Z2
	VADDPS       Z13, Z3, K2, Z3
	VBROADCASTSS (CX)(R9*2), Z11
	VCMPPS       $4, Z10, Z11, K3
	VMULPS       Z8, Z11, Z12
	VMULPS       Z9, Z11, Z13
	VADDPS       Z12, Z4, K3, Z4
	VADDPS       Z13, Z5, K3, Z5
	VBROADCASTSS (CX)(R11*1), Z11
	VCMPPS       $4, Z10, Z11, K4
	VMULPS       Z8, Z11, Z12
	VMULPS       Z9, Z11, Z13
	VADDPS       Z12, Z6, K4, Z6
	VADDPS       Z13, Z7, K4, Z7
	ADDQ         BX, R13
	ADDQ         R10, CX
	DECQ         R12
	JNZ          panelterm

panelstore:
	LEAQ    (DI)(AX*1), R12
	LEAQ    (R12)(BX*2), R13
	VMOVUPS Z0, K5, (R12)
	VMOVUPS Z1, K6, 64(R12)
	VMOVUPS Z2, K5, (R12)(BX*1)
	VMOVUPS Z3, K6, 64(R12)(BX*1)
	VMOVUPS Z4, K5, (R13)
	VMOVUPS Z5, K6, 64(R13)
	VMOVUPS Z6, K5, (R13)(BX*1)
	VMOVUPS Z7, K6, 64(R13)(BX*1)
	ADDQ    $128, AX
	CMPQ    AX, BX
	JLT     panel

paneldone:
	VZEROUPPER
	RET

// func dots16AVX512(s, t, b0, b1, b2, b3 []float32)
// dotsAVX2 at sixteen rows: s[16q+l] = Σⱼ t[16j+l]·bq[j], j ascending
// from +0 up to len(b0).
TEXT ·dots16AVX512(SB), NOSPLIT, $0-144
	MOVQ   s_base+0(FP), DI
	MOVQ   t_base+24(FP), SI
	MOVQ   b0_base+48(FP), R8
	MOVQ   b0_len+56(FP), CX
	MOVQ   b1_base+72(FP), R9
	MOVQ   b2_base+96(FP), R10
	MOVQ   b3_base+120(FP), R11
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	XORQ   AX, AX
	CMPQ   AX, CX
	JGE    dots16done

dots16loop:
	VMOVUPS      (SI), Z4
	VBROADCASTSS (R8)(AX*4), Z5
	VMULPS       Z5, Z4, Z5
	VADDPS       Z5, Z0, Z0
	VBROADCASTSS (R9)(AX*4), Z6
	VMULPS       Z6, Z4, Z6
	VADDPS       Z6, Z1, Z1
	VBROADCASTSS (R10)(AX*4), Z7
	VMULPS       Z7, Z4, Z7
	VADDPS       Z7, Z2, Z2
	VBROADCASTSS (R11)(AX*4), Z8
	VMULPS       Z8, Z4, Z8
	VADDPS       Z8, Z3, Z3
	ADDQ         $64, SI
	INCQ         AX
	CMPQ         AX, CX
	JLT          dots16loop

dots16done:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VZEROUPPER
	RET

// func rows4AVX2(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)
// dst[j] = dst[j] + a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j], j < len(dst).
TEXT ·rows4AVX2(SB), NOSPLIT, $0-136
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         b0_base+24(FP), R8
	MOVQ         b1_base+48(FP), R9
	MOVQ         b2_base+72(FP), R10
	MOVQ         b3_base+96(FP), R11
	VBROADCASTSS a0+120(FP), Y0
	VBROADCASTSS a1+124(FP), Y1
	VBROADCASTSS a2+128(FP), Y2
	VBROADCASTSS a3+132(FP), Y3
	MOVQ         CX, DX
	ANDQ         $-8, DX
	XORQ         AX, AX
	CMPQ         AX, DX
	JGE          rows4tail

rows4vec:
	VMOVUPS (DI)(AX*4), Y4
	VMULPS  (R8)(AX*4), Y0, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  (R9)(AX*4), Y1, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  (R10)(AX*4), Y2, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  (R11)(AX*4), Y3, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     rows4vec

rows4tail:
	CMPQ   AX, CX
	JGE    rows4done
	VMOVSS (DI)(AX*4), X4
	VMULSS (R8)(AX*4), X0, X5
	VADDSS X5, X4, X4
	VMULSS (R9)(AX*4), X1, X5
	VADDSS X5, X4, X4
	VMULSS (R10)(AX*4), X2, X5
	VADDSS X5, X4, X4
	VMULSS (R11)(AX*4), X3, X5
	VADDSS X5, X4, X4
	VMOVSS X4, (DI)(AX*4)
	INCQ   AX
	JMP    rows4tail

rows4done:
	VZEROUPPER
	RET

// func row1AVX2(dst, b []float32, a float32)
// dst[j] = dst[j] + a·b[j], j < len(dst).
TEXT ·row1AVX2(SB), NOSPLIT, $0-52
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         b_base+24(FP), R8
	VBROADCASTSS a+48(FP), Y0
	MOVQ         CX, DX
	ANDQ         $-8, DX
	XORQ         AX, AX
	CMPQ         AX, DX
	JGE          row1tail

row1vec:
	VMOVUPS (DI)(AX*4), Y4
	VMULPS  (R8)(AX*4), Y0, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     row1vec

row1tail:
	CMPQ   AX, CX
	JGE    row1done
	VMOVSS (DI)(AX*4), X4
	VMULSS (R8)(AX*4), X0, X5
	VADDSS X5, X4, X4
	VMOVSS X4, (DI)(AX*4)
	INCQ   AX
	JMP    row1tail

row1done:
	VZEROUPPER
	RET

// func dotsAVX2(s, t, b0, b1, b2, b3 []float32)
// s[8q+l] = Σⱼ t[8j+l]·bq[j], j ascending from +0 up to len(b0): lane l
// of accumulator q is one dot product, row l of an eight-row block
// interleaved into t against column q of a four-column group.
TEXT ·dotsAVX2(SB), NOSPLIT, $0-144
	MOVQ   s_base+0(FP), DI
	MOVQ   t_base+24(FP), SI
	MOVQ   b0_base+48(FP), R8
	MOVQ   b0_len+56(FP), CX
	MOVQ   b1_base+72(FP), R9
	MOVQ   b2_base+96(FP), R10
	MOVQ   b3_base+120(FP), R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   AX, AX
	CMPQ   AX, CX
	JGE    dotsdone

dotsloop:
	VMOVUPS      (SI), Y4
	VBROADCASTSS (R8)(AX*4), Y5
	VMULPS       Y5, Y4, Y5
	VADDPS       Y5, Y0, Y0
	VBROADCASTSS (R9)(AX*4), Y6
	VMULPS       Y6, Y4, Y6
	VADDPS       Y6, Y1, Y1
	VBROADCASTSS (R10)(AX*4), Y7
	VMULPS       Y7, Y4, Y7
	VADDPS       Y7, Y2, Y2
	VBROADCASTSS (R11)(AX*4), Y8
	VMULPS       Y8, Y4, Y8
	VADDPS       Y8, Y3, Y3
	ADDQ         $32, SI
	INCQ         AX
	CMPQ         AX, CX
	JLT          dotsloop

dotsdone:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

// func sgdAVX2(w, vel, g []float32, mu, scale, lr float32)
// v = mu·vel[i] + g[i]·scale; vel[i] = v; w[i] = w[i] − lr·v, i < len(w).
TEXT ·sgdAVX2(SB), NOSPLIT, $0-84
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         vel_base+24(FP), R8
	MOVQ         g_base+48(FP), R9
	VBROADCASTSS mu+72(FP), Y0
	VBROADCASTSS scale+76(FP), Y1
	VBROADCASTSS lr+80(FP), Y2
	MOVQ         CX, DX
	ANDQ         $-8, DX
	XORQ         AX, AX
	CMPQ         AX, DX
	JGE          sgdtail

sgdvec:
	VMULPS  (R8)(AX*4), Y0, Y3
	VMULPS  (R9)(AX*4), Y1, Y4
	VADDPS  Y4, Y3, Y3
	VMOVUPS Y3, (R8)(AX*4)
	VMULPS  Y3, Y2, Y3
	VMOVUPS (DI)(AX*4), Y4
	VSUBPS  Y3, Y4, Y4
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     sgdvec

sgdtail:
	CMPQ   AX, CX
	JGE    sgddone
	VMULSS (R8)(AX*4), X0, X3
	VMULSS (R9)(AX*4), X1, X4
	VADDSS X4, X3, X3
	VMOVSS X3, (R8)(AX*4)
	VMULSS X3, X2, X3
	VMOVSS (DI)(AX*4), X4
	VSUBSS X3, X4, X4
	VMOVSS X4, (DI)(AX*4)
	INCQ   AX
	JMP    sgdtail

sgddone:
	VZEROUPPER
	RET

// func addAVX2(dst, a, b []float32)
// dst[i] = a[i] + b[i], i < len(dst).
TEXT ·addAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), R8
	MOVQ b_base+48(FP), R9
	MOVQ CX, DX
	ANDQ $-8, DX
	XORQ AX, AX
	CMPQ AX, DX
	JGE  addtail

addvec:
	VMOVUPS (R8)(AX*4), Y0
	VADDPS  (R9)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     addvec

addtail:
	CMPQ   AX, CX
	JGE    adddone
	VMOVSS (R8)(AX*4), X0
	VADDSS (R9)(AX*4), X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	JMP    addtail

adddone:
	VZEROUPPER
	RET

// func accAVX2(dst, src []float32)
// dst[i] = dst[i] + src[i], i < len(dst).
TEXT ·accAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ CX, DX
	ANDQ $-8, DX
	XORQ AX, AX
	CMPQ AX, DX
	JGE  acctail

accvec:
	VMOVUPS (DI)(AX*4), Y0
	VADDPS  (SI)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     accvec

acctail:
	CMPQ   AX, CX
	JGE    accdone
	VMOVSS (DI)(AX*4), X0
	VADDSS (SI)(AX*4), X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	JMP    acctail

accdone:
	VZEROUPPER
	RET

// The ReLU mask is the ordered compare x > 0 (predicate GT_OQ, 0x1e):
// false for ±0 and every NaN, true for +denormals through +Inf — exactly
// positive() in ops.go.

// func reluAVX2(dst, src []float32)
// dst[i] = src[i] where src[i] > 0, +0 elsewhere, i < len(dst).
TEXT ·reluAVX2(SB), NOSPLIT, $0-48
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   src_base+24(FP), SI
	VXORPS Y0, Y0, Y0
	MOVQ   CX, DX
	ANDQ   $-8, DX
	XORQ   AX, AX
	CMPQ   AX, DX
	JGE    relutail

reluvec:
	VMOVUPS (SI)(AX*4), Y1
	VCMPPS  $0x1e, Y0, Y1, Y2
	VANDPS  Y1, Y2, Y2
	VMOVUPS Y2, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     reluvec

relutail:
	CMPQ   AX, CX
	JGE    reludone
	VMOVSS (SI)(AX*4), X1
	VCMPSS $0x1e, X0, X1, X2
	VANDPS X1, X2, X2
	VMOVSS X2, (DI)(AX*4)
	INCQ   AX
	JMP    relutail

reludone:
	VZEROUPPER
	RET

// func reluGradAVX2(grad, g, x []float32)
// grad[i] = grad[i] + g[i] where x[i] > 0; elsewhere grad[i] keeps its
// bits, i < len(grad).
TEXT ·reluGradAVX2(SB), NOSPLIT, $0-72
	MOVQ   grad_base+0(FP), DI
	MOVQ   grad_len+8(FP), CX
	MOVQ   g_base+24(FP), R8
	MOVQ   x_base+48(FP), R9
	VXORPS Y0, Y0, Y0
	MOVQ   CX, DX
	ANDQ   $-8, DX
	XORQ   AX, AX
	CMPQ   AX, DX
	JGE    relugtail

relugvec:
	VMOVUPS   (R9)(AX*4), Y1
	VCMPPS    $0x1e, Y0, Y1, Y2
	VMOVUPS   (DI)(AX*4), Y3
	VADDPS    (R8)(AX*4), Y3, Y4
	VBLENDVPS Y2, Y4, Y3, Y3
	VMOVUPS   Y3, (DI)(AX*4)
	ADDQ      $8, AX
	CMPQ      AX, DX
	JLT       relugvec

relugtail:
	CMPQ      AX, CX
	JGE       relugdone
	VMOVSS    (R9)(AX*4), X1
	VCMPSS    $0x1e, X0, X1, X2
	VMOVSS    (DI)(AX*4), X3
	VADDSS    (R8)(AX*4), X3, X4
	VBLENDVPS X2, X4, X3, X3
	VMOVSS    X3, (DI)(AX*4)
	INCQ      AX
	JMP       relugtail

relugdone:
	VZEROUPPER
	RET
