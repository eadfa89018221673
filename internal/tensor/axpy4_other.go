//go:build !amd64

package tensor

// axpy4 runs the GEMM's four-row step; off amd64 it is the Go loop.
func axpy4(acc, s0, s1, s2, s3 []float32, w0, w1, w2, w3 float32) {
	axpy4Go(acc, s0, s1, s2, s3, w0, w1, w2, w3)
}
