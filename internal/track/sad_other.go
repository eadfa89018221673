//go:build !amd64

package track

// windowSAD sums one template window's SAD; off amd64 it is the Go loop.
func windowSAD(s, t []uint8, stride, w, h int, bound int64) int64 {
	return windowSADGo(s, t, stride, w, h, bound)
}
