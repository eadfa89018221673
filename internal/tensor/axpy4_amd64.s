#include "textflag.h"

// func axpy4(acc, s0, s1, s2, s3 []float32, w0, w1, w2, w3 float32)
//
// acc[c] += ((w0·s0[c] + w1·s1[c]) + w2·s2[c]) + w3·s3[c] for c < len(acc).
// Each lane repeats the instructions go1.24 emits for axpy4Go's loop body,
// with the same destination and source operands, so results are bitwise
// equal to it (with that register choice, even NaN payloads). SSE only: an
// FMA would round once where the Go loop rounds twice.
TEXT ·axpy4(SB), NOSPLIT, $0-136
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ s0_base+24(FP), SI
	MOVQ s1_base+48(FP), R8
	MOVQ s2_base+72(FP), R9
	MOVQ s3_base+96(FP), R10

	// Broadcast each weight to all four lanes.
	MOVSS  w0+120(FP), X0
	SHUFPS $0, X0, X0
	MOVSS  w1+124(FP), X1
	SHUFPS $0, X1, X1
	MOVSS  w2+128(FP), X2
	SHUFPS $0, X2, X2
	MOVSS  w3+132(FP), X3
	SHUFPS $0, X3, X3

	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX // DX = len(acc) rounded down to a multiple of 4
	JZ   tail

loop4:
	MOVUPS (SI)(AX*4), X4
	MULPS  X0, X4
	MOVUPS (R8)(AX*4), X5
	MULPS  X1, X5
	ADDPS  X5, X4
	MOVUPS (R9)(AX*4), X5
	MULPS  X2, X5
	ADDPS  X5, X4
	MOVUPS (R10)(AX*4), X5
	MULPS  X3, X5
	ADDPS  X4, X5
	MOVUPS (DI)(AX*4), X6
	ADDPS  X6, X5
	MOVUPS X5, (DI)(AX*4)
	ADDQ   $4, AX
	CMPQ   AX, DX
	JLT    loop4

tail:
	CMPQ AX, CX
	JGE  done

loop1:
	MOVSS (SI)(AX*4), X4
	MULSS X0, X4
	MOVSS (R8)(AX*4), X5
	MULSS X1, X5
	ADDSS X5, X4
	MOVSS (R9)(AX*4), X5
	MULSS X2, X5
	ADDSS X5, X4
	MOVSS (R10)(AX*4), X5
	MULSS X3, X5
	ADDSS X4, X5
	ADDSS (DI)(AX*4), X5
	MOVSS X5, (DI)(AX*4)
	INCQ  AX
	CMPQ  AX, CX
	JLT   loop1

done:
	RET
