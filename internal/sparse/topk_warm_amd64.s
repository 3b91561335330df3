#include "textflag.h"

// LANE stores entry j of the group at (DX)(BX*4) as the Go loops do: the
// value at slot kept (R10) of val (SI), its index R13 at the same slot of
// idx (DI), and kept advanced by lane j's candidate bit, shifted out of R11.
#define LANE(off) \
	MOVL off(DX)(BX*4), AX; \
	MOVL AX, (SI)(R10*4); \
	MOVL R13, (DI)(R10*4); \
	INCL R13; \
	SHRL $1, R11; \
	ADCQ $0, R10

#define GROUP \
	MOVL R9, R13; \
	ADDL BX, R13; \
	LANE(0); \
	LANE(4); \
	LANE(8); \
	LANE(12); \
	LANE(16); \
	LANE(20); \
	LANE(24); \
	LANE(28)

// Both routines move low−1 and the mask into X registers with VMOVD, not
// MOVL: a legacy-SSE write to an X register while a Y register's upper
// half is live costs an SSE/AVX state transition, which measured ≈ 200 ns
// per call on a shared 2-core x86-64 host — more than the whole pass over
// a 1024-element block.

// func warmFilterAVX2(idx []int32, val []float32, g []float32, first int32, low uint32) (read, kept int)
//
// warmFilterGo (topk_warm.go), eight lanes at a time. A lane's candidate
// bit is the sign of low−1−key, key its value's bits with the sign
// cleared: the Go loop's (low-1-absKey(v))>>31, in the same wrapping
// 32-bit arithmetic, so it agrees for every low. A group with no
// candidate is skipped. A group with one is stored as the Go loop stores
// it: all eight entries, entry j at slot kept with first+read+j in idx,
// and kept advanced by lane j's bit, so even the slots past the last
// candidate hold what they hold in Go.
TEXT ·warmFilterAVX2(SB), NOSPLIT, $0-96
	MOVQ         idx_base+0(FP), DI
	MOVQ         idx_len+8(FP), R8
	MOVQ         val_base+24(FP), SI
	MOVQ         g_base+48(FP), DX
	MOVQ         g_len+56(FP), CX
	MOVL         first+72(FP), R9
	MOVL         low+76(FP), AX
	DECL         AX
	VMOVD        AX, X0
	VPBROADCASTD X0, Y0 // low−1 in every lane
	MOVL         $0x7fffffff, AX
	VMOVD        AX, X1
	VPBROADCASTD X1, Y1 // the magnitude mask
	ANDQ         $-8, CX // the end of the whole groups
	SUBQ         $8, R8  // a group is stored only while kept <= len(idx)-8
	XORQ         BX, BX  // read
	XORQ         R10, R10 // kept

scan:
	CMPQ      BX, CX
	JGE       done
	VPAND     (DX)(BX*4), Y1, Y2
	VPSUBD    Y2, Y0, Y2
	VMOVMSKPS Y2, R11
	TESTL     R11, R11
	JNZ       group
	ADDQ      $8, BX
	JMP       scan

group:
	CMPQ R10, R8
	JGT  done
	GROUP
	ADDQ $8, BX
	JMP  scan

done:
	MOVQ BX, read+80(FP)
	MOVQ R10, kept+88(FP)
	VZEROUPPER
	RET

// func addFilterAVX2(idx []int32, val []float32, g []float32, add []float32, first int32, low uint32) (read, kept int)
//
// addFilterGo: warmFilterAVX2 on the sums add + g, each group stored back
// into g. The sum is one VADDPS whose first source is add, as AddInto's
// src + dst, so that of two NaNs add's payload survives there too. A group
// that holds a candidate when fewer than eight slots remain is neither
// stored nor buffered: read stops at it, and g keeps its old values from
// there on.
TEXT ·addFilterAVX2(SB), NOSPLIT, $0-120
	MOVQ         idx_base+0(FP), DI
	MOVQ         idx_len+8(FP), R8
	MOVQ         val_base+24(FP), SI
	MOVQ         g_base+48(FP), DX
	MOVQ         g_len+56(FP), CX
	MOVQ         add_base+72(FP), R12
	MOVL         first+96(FP), R9
	MOVL         low+100(FP), AX
	DECL         AX
	VMOVD        AX, X0
	VPBROADCASTD X0, Y0 // low−1 in every lane
	MOVL         $0x7fffffff, AX
	VMOVD        AX, X1
	VPBROADCASTD X1, Y1 // the magnitude mask
	ANDQ         $-8, CX // the end of the whole groups
	SUBQ         $8, R8  // a group is stored only while kept <= len(idx)-8
	XORQ         BX, BX  // read
	XORQ         R10, R10 // kept

addscan:
	CMPQ      BX, CX
	JGE       adddone
	VMOVUPS   (R12)(BX*4), Y3
	VADDPS    (DX)(BX*4), Y3, Y3 // add + g
	VPAND     Y3, Y1, Y2
	VPSUBD    Y2, Y0, Y2
	VMOVMSKPS Y2, R11
	TESTL     R11, R11
	JNZ       addgroup
	VMOVUPS   Y3, (DX)(BX*4)
	ADDQ      $8, BX
	JMP       addscan

addgroup:
	CMPQ    R10, R8
	JGT     adddone
	VMOVUPS Y3, (DX)(BX*4)
	GROUP
	ADDQ    $8, BX
	JMP     addscan

adddone:
	MOVQ BX, read+104(FP)
	MOVQ R10, kept+112(FP)
	VZEROUPPER
	RET
