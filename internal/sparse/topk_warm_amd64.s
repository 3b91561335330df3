#include "textflag.h"

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
	MOVL         AX, X0
	VPBROADCASTD X0, Y0 // low−1 in every lane
	MOVL         $0x7fffffff, AX
	MOVL         AX, X1
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
	LEAQ (DX)(BX*4), R12
	MOVL R9, R13
	ADDL BX, R13

#define LANE(off) \
	MOVL off(R12), AX; \
	MOVL AX, (SI)(R10*4); \
	MOVL R13, (DI)(R10*4); \
	INCL R13; \
	SHRL $1, R11; \
	ADCQ $0, R10

	LANE(0)
	LANE(4)
	LANE(8)
	LANE(12)
	LANE(16)
	LANE(20)
	LANE(24)
	LANE(28)
	ADDQ $8, BX
	JMP  scan

done:
	MOVQ BX, read+80(FP)
	MOVQ R10, kept+88(FP)
	VZEROUPPER
	RET
