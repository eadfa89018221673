#include "textflag.h"

// Byte masks for a row's last w%16 bytes: 16 zero bytes, 16 0xFF bytes,
// 16 zero bytes. The 16 bytes at offset r keep lanes 16-r..15 (the row's
// end, loaded backward); those at offset 32-r keep lanes 0..r-1 (a row
// narrower than 16 bytes, loaded forward).
DATA sadmask<>+0x00(SB)/8, $0
DATA sadmask<>+0x08(SB)/8, $0
DATA sadmask<>+0x10(SB)/8, $-1
DATA sadmask<>+0x18(SB)/8, $-1
DATA sadmask<>+0x20(SB)/8, $0
DATA sadmask<>+0x28(SB)/8, $0
GLOBL sadmask<>(SB), RODATA|NOPTR, $48

// func windowSAD(s, t []uint8, stride, w, h int, bound int64) int64
//
// Σ|s[y·stride+x] − t[y·w+x]| over x < w, y < h, exact; bound is not read.
// Each row's whole 16-byte chunks are one MOVOU per operand and one PSADBW.
// The last r = w%16 bytes are one more 16-byte load per operand, masked
// with PAND so only those r lanes count (masked lanes are 0 in both, so
// they add |0−0|). That load is backward, the 16 bytes that end at the
// row's end, whenever they start inside t: always when w ≥ 16, and for
// w < 16 from the first row on whose end lies 16 bytes past t's base (row
// ends only grow, so every later row qualifies too). Rows before it load
// forward, the 16 bytes from the row's start, when those end inside t, and
// otherwise (only templates shorter than 32 bytes) go byte by byte. Only t
// is checked: s's rows start stride ≥ w bytes apart and s holds
// (h−1)·stride + w bytes, so s has at least as many bytes before and after
// each row as t, and a load that fits t fits s.
TEXT ·windowSAD(SB), NOSPLIT, $0-88
	MOVQ s_base+0(FP), SI
	MOVQ t_base+24(FP), DI
	MOVQ t_len+32(FP), R9
	MOVQ stride+48(FP), R10
	MOVQ w+56(FP), R11
	MOVQ h+64(FP), CX

	MOVQ R11, DX
	ANDQ $-16, DX // DX = bytes in whole chunks
	MOVQ R11, R12
	ANDQ $15, R12 // R12 = r
	LEAQ sadmask<>(SB), AX
	MOVOU (AX)(R12*1), X6 // keeps lanes 16-r..15
	NEGQ  R12
	MOVOU 32(AX)(R12*1), X7 // keeps lanes 0..r-1
	NEGQ  R12

	PXOR  X0, X0 // two 64-bit partial sums
	TESTQ CX, CX
	JLE   done
	TESTQ DX, DX
	JNZ   body   // w ≥ 16: every backward load starts inside its row
	TESTQ R12, R12
	JZ    done   // w == 0

	LEAQ 16(DI), R14 // a backward load fits t once its row ends at or past R14
	ADDQ DI, R9      // R9 = one past t's last byte

head:
	LEAQ   (DI)(R11*1), AX
	CMPQ   AX, R14
	JCC    narrow // the backward load fits from this row on
	LEAQ   16(DI), AX
	CMPQ   AX, R9
	JHI    scalar
	MOVOU  (SI), X1
	MOVOU  (DI), X2
	PAND   X7, X1
	PAND   X7, X2
	PSADBW X2, X1
	PADDQ  X1, X0

headnext:
	ADDQ R10, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  head
	JMP  done

scalar:
	// Neither load fits t: add |s[x] − t[x]| one byte at a time.
	XORQ BX, BX

scalarbyte:
	MOVBQZX (SI)(BX*1), AX
	MOVBQZX (DI)(BX*1), R12
	SUBQ    R12, AX
	MOVQ    AX, R12
	NEGQ    R12
	CMOVQLT AX, R12
	MOVQ    R12, X1
	PADDQ   X1, X0
	INCQ    BX
	CMPQ    BX, R11
	JLT     scalarbyte
	JMP     headnext

narrow:
	// w < 16: one masked backward load per row.
	MOVOU  -16(SI)(R11*1), X1
	MOVOU  -16(DI)(R11*1), X2
	PAND   X6, X1
	PAND   X6, X2
	PSADBW X2, X1
	PADDQ  X1, X0
	ADDQ   R10, SI
	ADDQ   R11, DI
	DECQ   CX
	JNZ    narrow
	JMP    done

body:
	// w ≥ 16: the chunk loop, then the masked backward load when r > 0.
	XORQ BX, BX

chunk:
	MOVOU  (SI)(BX*1), X1
	MOVOU  (DI)(BX*1), X2
	PSADBW X2, X1
	PADDQ  X1, X0
	ADDQ   $16, BX
	CMPQ   BX, DX
	JLT    chunk
	TESTQ  R12, R12
	JZ     next
	MOVOU  -16(SI)(R11*1), X1
	MOVOU  -16(DI)(R11*1), X2
	PAND   X6, X1
	PAND   X6, X2
	PSADBW X2, X1
	PADDQ  X1, X0

next:
	ADDQ R10, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  body

done:
	PSHUFD $0x4e, X0, X1
	PADDQ  X1, X0
	MOVQ   X0, AX
	MOVQ   AX, ret+80(FP)
	RET
