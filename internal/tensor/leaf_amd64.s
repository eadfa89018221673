#include "textflag.h"

// The DNN's pool, FC and activation leaves in SSE2, four lanes at a time,
// each running its Go form's operations per lane in the Go form's order.
// Pool, ReLU and leaky select between values or scale one, so every output
// is bitwise the Go form's, NaN payloads included. The FC chains multiply
// and add as the Go loop does, so every non-NaN output is bitwise equal
// and a NaN stays NaN; which payload survives where two NaNs meet depends
// on operand order, which the Go compiler picks per lane by register
// choice. Tails (len%4) stay in Go; see leaf_amd64.go. MOVUPS everywhere:
// no operand is aligned.

// MAXSTEP is one step of maxPool's comparison on four windows:
// v = (v > best || v != v) ? v : best, i.e. a mask of best < v (CMPPS LT)
// or v unordered with itself (CMPPS UNORD), blended by AND/ANDN/OR. The
// result is in v; X6 and X7 are scratch.
#define MAXSTEP(best, v) \
	MOVAPS best, X6; \
	CMPPS  v, X6, $1; \
	MOVAPS v, X7; \
	CMPPS  v, X7, $3; \
	ORPS   X7, X6; \
	ANDPS  X6, v; \
	ANDNPS best, X6; \
	ORPS   X6, v

// func pool4(o, top, bot []float32)
//
// Four 2×2 windows per step: eight floats from each input row,
// de-interleaved by SHUFPS into even columns (0x88) and odd columns
// (0xDD), give each window's a[0], a[1], b[0], b[1] in four registers;
// best starts at a[0] and takes a[1], b[0], b[1] in that order.
// len(o)/4 steps; top and bot must hold 2·(len(o) &^ 3) floats.
TEXT ·pool4(SB), NOSPLIT, $0-72
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ top_base+24(FP), SI
	MOVQ bot_base+48(FP), DX
	SHRQ $2, CX
	JZ   pooldone

poolloop:
	MOVUPS (SI), X0
	MOVUPS 16(SI), X1
	MOVAPS X0, X2
	SHUFPS $0x88, X1, X2  // a[0]: top's even columns
	SHUFPS $0xDD, X1, X0  // a[1]: top's odd columns
	MOVUPS (DX), X3
	MOVUPS 16(DX), X4
	MOVAPS X3, X5
	SHUFPS $0x88, X4, X5  // b[0]
	SHUFPS $0xDD, X4, X3  // b[1]
	MAXSTEP(X2, X0)
	MAXSTEP(X0, X5)
	MAXSTEP(X5, X3)
	MOVUPS X3, (DI)
	ADDQ   $32, SI
	ADDQ   $32, DX
	ADDQ   $16, DI
	DECQ   CX
	JNZ    poolloop

pooldone:
	RET

// FCSTEP adds one k-step's four products w·x (x's lanes in X4) to one
// row's accumulator chains: acc += w·x, a multiply then an add per lane.
#define FCSTEP(row, acc) \
	MOVUPS (row)(AX*1), X5; \
	MULPS  X4, X5; \
	ADDPS  X5, acc

// func fc4(s *[4][4]float32, w, x []float32)
//
// Four FC rows' dot products with x: row k is w[k·len(x):], and s[k][j]
// is the Go loop's chain s_j, Σ w[k][4i+j]·x[4i+j] over i < len(x)/4,
// added in i order from zero. X0..X3 hold the four rows' chains; each x
// load feeds all four rows. Registers: AX byte offset into x and the rows,
// CX k-steps left, DX x, SI/R8/R9/R10 rows 0–3, DI s.
TEXT ·fc4(SB), NOSPLIT, $0-56
	MOVQ  w_base+8(FP), SI
	MOVQ  x_base+32(FP), DX
	MOVQ  x_len+40(FP), CX
	LEAQ  (SI)(CX*4), R8
	LEAQ  (R8)(CX*4), R9
	LEAQ  (R9)(CX*4), R10
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX
	SHRQ  $2, CX
	JZ    fcstore

fcloop:
	MOVUPS (DX)(AX*1), X4
	FCSTEP(SI, X0)
	FCSTEP(R8, X1)
	FCSTEP(R9, X2)
	FCSTEP(R10, X3)
	ADDQ   $16, AX
	DECQ   CX
	JNZ    fcloop

fcstore:
	MOVQ   s+0(FP), DI
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	RET

// func relu4(v []float32)
//
// v = max(0, v) as MAXPS's 0 > v ? 0 : v (it returns the source operand
// v unless 0 is greater), which keeps −0 and NaN as `if v < 0` does.
// len(v)/4 steps.
TEXT ·relu4(SB), NOSPLIT, $0-24
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	SHRQ $2, CX
	JZ   reludone

reluloop:
	MOVUPS (SI), X1
	XORPS  X0, X0
	MAXPS  X1, X0
	MOVUPS X0, (SI)
	ADDQ   $16, SI
	DECQ   CX
	JNZ    reluloop

reludone:
	RET

// func leaky4(v []float32, alpha float32)
//
// v = v < 0 ? v·alpha : v: a CMPPS LT mask against zero blends the
// product with v. len(v)/4 steps.
TEXT ·leaky4(SB), NOSPLIT, $0-28
	MOVQ   v_base+0(FP), SI
	MOVQ   v_len+8(FP), CX
	MOVSS  alpha+24(FP), X2
	SHUFPS $0, X2, X2
	XORPS  X3, X3
	SHRQ   $2, CX
	JZ     leakydone

leakyloop:
	MOVUPS (SI), X0
	MOVAPS X0, X1
	CMPPS  X3, X1, $1     // v < 0
	MOVAPS X0, X4
	MULPS  X2, X4         // v·alpha
	ANDPS  X1, X4
	ANDNPS X0, X1
	ORPS   X4, X1
	MOVUPS X1, (SI)
	ADDQ   $16, SI
	DECQ   CX
	JNZ    leakyloop

leakydone:
	RET
