package img

// blurRow3x3 writes one output row from its three source rows a, b, c.
// Interior columns 1 … 8·⌊(w−2)/8⌋ go through blur3x3 (blur_amd64.s), eight
// at a time; column 0, column w−1 and the (w−2) mod 8 interior columns left
// over go through blurRow3, from the column sums they read. The result is
// blurRow3x3Go's, bit for bit.
func blurRow3x3(dst, a, b, c []uint8, cs []uint16) {
	w := len(cs)
	dst, a, b, c = dst[:w], a[:w], b[:w], c[:w]
	n := 0
	if w >= 10 {
		n = (w - 2) &^ 7
		blur3x3(&dst[1], &a[0], &b[0], &c[0], n)
		cs[0] = uint16(a[0]) + uint16(b[0]) + uint16(c[0])
		cs[1] = uint16(a[1]) + uint16(b[1]) + uint16(c[1])
	}
	tail := cs[n:]
	a, b, c = a[n:], b[n:], c[n:]
	for x := range tail {
		tail[x] = uint16(a[x]) + uint16(b[x]) + uint16(c[x])
	}
	blurRow3(dst, cs, 3, n)
}

// blur3x3 writes dst[i] = (Σ 3×3 window + 4) / 9 for i < n, the window of
// dst[i] spanning columns i … i+2 of the source rows a, b and c (dst is
// output column 1 when a, b, c are at column 0). It is SSE2, in the amd64
// baseline, so there is no CPU dispatch. n must be a positive multiple of
// 8; the routine reads a, b, c at offsets 0 … n+1 and writes dst at
// 0 … n−1, and nothing else. The divide is PMULHUW by 7282 = ⌈65536/9⌉:
// for every sum s ≤ 9·255, ((s+4)·7282) >> 16 = (s+4) / 9.
//
//go:noescape
func blur3x3(dst, a, b, c *uint8, n int)
