package tensor

// axpy4 is axpy4Go four lanes at a time in SSE (axpy4_amd64.s). Per lane
// it issues the scalar loop's own MULSS/ADDSS sequence in the same operand
// order, so every element is bitwise equal to axpy4Go's. SSE is in the
// amd64 baseline, so there is no CPU dispatch. The routine reads len(acc)
// elements of each s without bounds checks: callers must pass s0..s3 of at
// least that length.
//
//go:noescape
func axpy4(acc, s0, s1, s2, s3 []float32, w0, w1, w2, w3 float32)
