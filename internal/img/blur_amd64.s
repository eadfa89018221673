#include "textflag.h"

// func blur3x3(dst, a, b, c *uint8, n int)
//
// Eight output bytes per iteration. Each source row contributes three
// 8-byte MOVQ loads at column offsets 0, 1 and 2, widened to words with
// PUNPCKLBW against zero; the nine words per lane are summed with PADDW
// (at most 9·255 = 2295, no overflow), 4 is added, and PMULHUW by 7282
// divides by 9 exactly over that range. The quotients are at most 255, so
// PACKUSWB packs them back to bytes unchanged. The last iteration's loads
// end at offset n+1, the last byte the window of dst[n−1] reads.
TEXT ·blur3x3(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), R9
	MOVQ c+24(FP), R10
	MOVQ n+32(FP), CX

	PXOR       X0, X0
	MOVQ       $0x0004000400040004, AX
	MOVQ       AX, X14
	PUNPCKLQDQ X14, X14                 // 4 in every word
	MOVQ       $0x1c721c721c721c72, AX
	MOVQ       AX, X15
	PUNPCKLQDQ X15, X15                 // 7282 in every word
	XORQ       BX, BX

loop:
	MOVQ      (R8)(BX*1), X1
	MOVQ      1(R8)(BX*1), X2
	MOVQ      2(R8)(BX*1), X3
	MOVQ      (R9)(BX*1), X4
	MOVQ      1(R9)(BX*1), X5
	MOVQ      2(R9)(BX*1), X6
	MOVQ      (R10)(BX*1), X7
	MOVQ      1(R10)(BX*1), X8
	MOVQ      2(R10)(BX*1), X9
	PUNPCKLBW X0, X1
	PUNPCKLBW X0, X2
	PUNPCKLBW X0, X3
	PUNPCKLBW X0, X4
	PUNPCKLBW X0, X5
	PUNPCKLBW X0, X6
	PUNPCKLBW X0, X7
	PUNPCKLBW X0, X8
	PUNPCKLBW X0, X9
	PADDW     X2, X1
	PADDW     X4, X3
	PADDW     X6, X5
	PADDW     X8, X7
	PADDW     X14, X9
	PADDW     X3, X1
	PADDW     X7, X5
	PADDW     X9, X1
	PADDW     X5, X1
	PMULHUW   X15, X1
	PACKUSWB  X1, X1
	MOVQ      X1, (DI)(BX*1)
	ADDQ      $8, BX
	CMPQ      BX, CX
	JLT       loop
	RET
