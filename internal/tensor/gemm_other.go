//go:build !amd64

package tensor

// gemm4x8 runs the GEMM's register tile; off amd64 it is the Go loop.
func gemm4x8(out, in []float32, off []int32, w []float32, bias *[4]float32, depth, cols, n int) {
	gemm4x8Go(out, in, off, w, bias, depth, cols, n)
}
