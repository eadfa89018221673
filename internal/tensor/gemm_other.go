//go:build !amd64

package tensor

// gemm4x8 runs the GEMM's register tile; off amd64 it is the Go loop.
func gemm4x8(out, p, w []float32, bias *[4]float32, depth, cols, n int) {
	gemm4x8Go(out, p, w, bias, depth, cols, n)
}
