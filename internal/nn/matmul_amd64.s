#include "textflag.h"

// The AVX2 passes behind matmul.go's kernels, the elementwise ops of
// ops.go and the momentum update of sgd.go. Every lane does what one
// iteration of the Go loop it replaces does, in the same order: each
// product is its own VMULPS (rounded), then its own VADDPS or VSUBPS
// (rounded) — never a fused multiply-add, which rounds once and changes
// bits.

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

// func dotsAVX2(s *[32]float32, t, b0, b1, b2, b3 []float32)
// s[8q+l] = Σⱼ t[8j+l]·bq[j], j ascending from +0 up to len(b0): lane l
// of accumulator q is one dot product, row l of an eight-row block
// interleaved into t against column q of a four-column group.
TEXT ·dotsAVX2(SB), NOSPLIT, $0-128
	MOVQ   s+0(FP), DI
	MOVQ   t_base+8(FP), SI
	MOVQ   b0_base+32(FP), R8
	MOVQ   b0_len+40(FP), CX
	MOVQ   b1_base+56(FP), R9
	MOVQ   b2_base+80(FP), R10
	MOVQ   b3_base+104(FP), R11
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

// func xgetbv() (eax uint32)
// The low word of XCR0: which register states the OS saves.
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
