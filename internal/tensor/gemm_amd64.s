#include "textflag.h"

// func gemm4x8(out, p, w []float32, bias *[4]float32, depth, cols, n int)
//
// Register tile: X0..X7 hold four output rows × eight columns (two XMM per
// row) for the whole depth walk, so an output is never loaded and is
// stored once. Per four patch rows, each channel's four weights come in
// with one MOVUPS and are broadcast by PSHUFD, then each half-row computes
// ((s0·w0 + s1·w1) + s2·w2) + s3·w3 and adds it to the accumulator: the
// operation order of axpy4's lane, so every non-NaN output is bitwise
// equal to gemm4x8Go's (operands are commuted in places, which only picks a
// different payload when two NaNs meet). Leftover rows (depth%4) add
// w·s one row at a time, as the Go loop's tail does. SSE2 only: an FMA
// would round once where the Go loop rounds twice.
//
// Registers: AX patch row, BX bias, CX depth/4, DX w, SI patch column
// block, DI out column block, R8 cols·4 (row stride of out and p), R9
// blocks left, R10 depth·4 (channel stride of w), R11 3·R8, R12 3·R10,
// R13 weight column, R14 loop counter; X8..X11 broadcast weights, X12 the
// weight load, X13/X14 the running sum and the product.

// HALF adds one k-step's four products for four lanes at byte offset off
// of the current four patch rows into acc.
#define HALF(off, acc) \
	MOVUPS off(AX), X13; \
	MULPS  X8, X13; \
	MOVUPS off(AX)(R8*1), X14; \
	MULPS  X9, X14; \
	ADDPS  X14, X13; \
	MOVUPS off(AX)(R8*2), X14; \
	MULPS  X10, X14; \
	ADDPS  X14, X13; \
	MOVUPS off(AX)(R11*1), X14; \
	MULPS  X11, X14; \
	ADDPS  X14, X13; \
	ADDPS  X13, acc

// STEP4 runs one channel's k-step: weights w[r..r+3] at wsrc into both
// halves of its accumulator row.
#define STEP4(wsrc, acc0, acc1) \
	MOVUPS wsrc, X12; \
	PSHUFD $0x00, X12, X8; \
	PSHUFD $0x55, X12, X9; \
	PSHUFD $0xaa, X12, X10; \
	PSHUFD $0xff, X12, X11; \
	HALF(0, acc0); \
	HALF(16, acc1)

// STEP1 adds one leftover row's product w·s into one channel's row.
#define STEP1(wsrc, acc0, acc1) \
	MOVSS  wsrc, X8; \
	SHUFPS $0, X8, X8; \
	MOVUPS (AX), X13; \
	MULPS  X8, X13; \
	ADDPS  X13, acc0; \
	MOVUPS 16(AX), X13; \
	MULPS  X8, X13; \
	ADDPS  X13, acc1

// BIAS broadcasts the bias at off(BX) into both halves of one row.
#define BIAS(off, acc0, acc1) \
	MOVSS  off(BX), acc0; \
	SHUFPS $0, acc0, acc0; \
	MOVAPS acc0, acc1

TEXT ·gemm4x8(SB), NOSPLIT, $0-104
	MOVQ out_base+0(FP), DI
	MOVQ p_base+24(FP), SI
	MOVQ w_base+48(FP), DX
	MOVQ bias+72(FP), BX
	MOVQ depth+80(FP), CX
	MOVQ cols+88(FP), R8
	MOVQ n+96(FP), R9
	TESTQ R9, R9
	JZ    done

	SHLQ $2, R8               // row stride in bytes
	LEAQ (R8)(R8*2), R11
	MOVQ CX, R10
	SHLQ $2, R10              // channel stride in bytes
	LEAQ (R10)(R10*2), R12
	SHRQ $2, CX               // k-steps of four rows

block:
	BIAS(0, X0, X1)
	BIAS(4, X2, X3)
	BIAS(8, X4, X5)
	BIAS(12, X6, X7)
	MOVQ SI, AX
	MOVQ DX, R13
	MOVQ CX, R14
	TESTQ R14, R14
	JZ    tail

step:
	STEP4((R13), X0, X1)
	STEP4((R13)(R10*1), X2, X3)
	STEP4((R13)(R10*2), X4, X5)
	STEP4((R13)(R12*1), X6, X7)
	ADDQ $16, R13
	LEAQ (AX)(R8*4), AX
	DECQ R14
	JNZ  step

tail:
	MOVQ depth+80(FP), R14
	ANDQ $3, R14
	JZ   store

row:
	STEP1((R13), X0, X1)
	STEP1((R13)(R10*1), X2, X3)
	STEP1((R13)(R10*2), X4, X5)
	STEP1((R13)(R12*1), X6, X7)
	ADDQ $4, R13
	ADDQ R8, AX
	DECQ R14
	JNZ  row

store:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, (DI)(R8*1)
	MOVUPS X3, 16(DI)(R8*1)
	MOVUPS X4, (DI)(R8*2)
	MOVUPS X5, 16(DI)(R8*2)
	MOVUPS X6, (DI)(R11*1)
	MOVUPS X7, 16(DI)(R11*1)
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ R9
	JNZ  block

done:
	RET
