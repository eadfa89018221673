package tensor

// gemm4x8 is gemm4x8Go as one SSE routine (gemm_amd64.s): the four output
// rows × eight columns of a tile stay in XMM registers from the bias to the
// last patch row, and each tile is stored once. Per lane it runs the Go
// loop's multiplies and adds in the Go loop's order, so every non-NaN
// output is bitwise equal to gemm4x8Go's and NaNs stay NaN. SSE is in the
// amd64 baseline, so there is no CPU dispatch. The routine does not check
// shapes: out must hold 3·cols + 8·n elements, off depth entries, each in
// [0, len(in) − 8·n], and w 4·depth, with cols ≥ 8·n.
//
//go:noescape
func gemm4x8(out, in []float32, off []int32, w []float32, bias *[4]float32, depth, cols, n int)
