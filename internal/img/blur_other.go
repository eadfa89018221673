//go:build !amd64

package img

// blurRow3x3 writes one output row from its three source rows; off amd64 it
// is the Go loop.
func blurRow3x3(dst, a, b, c []uint8, cs []uint16) {
	blurRow3x3Go(dst, a, b, c, cs)
}
