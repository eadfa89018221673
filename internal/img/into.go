package img

import "fmt"

// This file holds the destination-reuse variants of the allocating image
// operations. Each XxxInto(dst, ...) writes into dst's backing store when it
// is large enough, growing it otherwise, and returns dst; passing nil
// allocates. Results are bitwise-identical to the allocating originals —
// buffer reuse never changes pixel math. None of these accept dst aliasing
// the source image.

// grayInto returns dst reshaped to w×h, growing its pixel store as needed;
// nil allocates a fresh image. Contents are unspecified — callers fully
// overwrite the pixels.
func grayInto(dst *Gray, w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("img: invalid dimensions %dx%d", w, h))
	}
	if dst == nil {
		return NewGray(w, h)
	}
	n := w * h
	if cap(dst.Pix) < n {
		dst.Pix = make([]uint8, n)
	}
	dst.W, dst.H, dst.Pix = w, h, dst.Pix[:n]
	return dst
}

// CropInto is Crop writing into dst (nil allocates).
func (g *Gray) CropInto(dst *Gray, r Rect) *Gray {
	c := r.Clip(0, 0, g.W, g.H)
	if c.Empty() {
		out := grayInto(dst, 1, 1)
		out.Pix[0] = 0
		return out
	}
	// Sub-pixel extents truncate to zero; clamp to one pixel so callers
	// always receive a usable image.
	w := int(c.W())
	if w < 1 {
		w = 1
	}
	h := int(c.H())
	if h < 1 {
		h = 1
	}
	out := grayInto(dst, w, h)
	x0, y0 := int(c.X0), int(c.Y0)
	for y := 0; y < h; y++ {
		src := (y0+y)*g.W + x0
		copy(out.Pix[y*w:(y+1)*w], g.Pix[src:src+w])
	}
	return out
}

// resizeChunk is how many output columns' taps ResizeInto keeps on the
// stack at once (1.5 KB); wider outputs take the columns in chunks.
const resizeChunk = 64

// byteFloat[b] is float64(b): a load in place of a conversion.
var byteFloat = func() (t [256]float64) {
	for i := range t {
		t[i] = float64(i)
	}
	return t
}()

// ResizeInto is Resize writing into dst (nil allocates). Each output column's
// taps x0, x1 and weight fx depend only on x, so they are computed once per
// call, a chunk of columns at a time, with the same expressions a per-pixel
// loop uses, and a source byte's value comes from byteFloat, which holds it
// exactly: every output byte equals that loop's on every GOARCH.
func (g *Gray) ResizeInto(dst *Gray, w, h int) *Gray {
	out := grayInto(dst, w, h)
	if w == g.W && h == g.H {
		copy(out.Pix, g.Pix)
		return out
	}
	xRatio := float64(g.W) / float64(w)
	yRatio := float64(g.H) / float64(h)
	var x0s, x1s [resizeChunk]int
	var fxs [resizeChunk]float64
	for cx := 0; cx < w; cx += resizeChunk {
		cols := min(w-cx, resizeChunk)
		for i := range cols {
			sx := float64((float64(cx+i) + 0.5) * xRatio)
			x0 := int(sx - 0.5)
			fx := sx - 0.5 - float64(x0)
			if x0 < 0 {
				x0, fx = 0, 0
			}
			x0s[i], x1s[i], fxs[i] = x0, min(x0+1, g.W-1), fx
		}
		for y := 0; y < h; y++ {
			sy := float64((float64(y) + 0.5) * yRatio)
			y0 := int(sy - 0.5)
			fy := sy - 0.5 - float64(y0)
			if y0 < 0 {
				y0, fy = 0, 0
			}
			y1 := min(y0+1, g.H-1)
			row0 := g.Pix[y0*g.W : (y0+1)*g.W]
			row1 := g.Pix[y1*g.W : (y1+1)*g.W]
			dst := out.Pix[y*w+cx : y*w+cx+cols]
			gy := 1 - fy
			for i := range dst {
				x0, x1, fx := x0s[i], x1s[i], fxs[i]
				p00 := byteFloat[row0[x0]]
				p01 := byteFloat[row0[x1]]
				p10 := byteFloat[row1[x0]]
				p11 := byteFloat[row1[x1]]
				top := float64(p00*(1-fx)) + float64(p01*fx)
				bot := float64(p10*(1-fx)) + float64(p11*fx)
				dst[i] = uint8(float64(top*gy) + float64(bot*fy) + 0.5)
			}
		}
	}
	return out
}

// Reset recomputes ii as the integral image of g, growing the cumulative
// table as needed. The receiver must be non-nil; use NewIntegral for
// one-shot computation.
func (ii *Integral) Reset(g *Gray) {
	w1, h1 := g.W+1, g.H+1
	n := w1 * h1
	if cap(ii.Cum) < n {
		ii.Cum = make([]int64, n)
	}
	ii.W, ii.H, ii.Cum = g.W, g.H, ii.Cum[:n]
	// Row 0 and column 0 are zero by construction; rewrite them explicitly
	// since the buffer may hold a previous image's sums.
	for x := 0; x < w1; x++ {
		ii.Cum[x] = 0
	}
	for y := 1; y < h1; y++ {
		ii.Cum[y*w1] = 0
		var rowSum int64
		for x := 1; x < w1; x++ {
			rowSum += int64(g.Pix[(y-1)*g.W+(x-1)])
			ii.Cum[y*w1+x] = ii.Cum[(y-1)*w1+x] + rowSum
		}
	}
}

// BoxBlurInto is BoxBlur writing into dst (nil allocates), drawing its
// workspace from ii when non-nil. Radius 1 — the only one LOC uses — takes
// the separable path (boxBlur3) and never touches ii's integral table;
// other radii rebuild the integral image in ii.
func (g *Gray) BoxBlurInto(dst *Gray, ii *Integral, r int) *Gray {
	out := grayInto(dst, g.W, g.H)
	if r <= 0 {
		copy(out.Pix, g.Pix)
		return out
	}
	if ii == nil {
		ii = &Integral{}
	}
	if r == 1 {
		g.boxBlur3(out, ii, blurRow3x3)
		return out
	}
	ii.Reset(g)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			x0, y0 := x-r, y-r
			x1, y1 := x+r+1, y+r+1
			if x0 < 0 {
				x0 = 0
			}
			if y0 < 0 {
				y0 = 0
			}
			if x1 > g.W {
				x1 = g.W
			}
			if y1 > g.H {
				y1 = g.H
			}
			sum := ii.Sum(x0, y0, x1, y1)
			area := (x1 - x0) * (y1 - y0)
			out.Pix[y*g.W+x] = uint8((sum + int64(area)/2) / int64(area))
		}
	}
	return out
}

// boxBlur3 is the r = 1 box blur, computed separably in exact integers.
// Each output row first sums its 1–3 in-bounds source rows into a
// column-sum row (at most 3·255, so uint16 is exact), then slides a
// 3-wide window along it. Every pixel gets the same clipped sum and area
// as the integral path and the same rounding (sum + area/2) / area, so
// the result is bitwise-identical; interior pixels divide by the constant
// 9, which compiles to a multiply. Rows with three source rows go through
// row3 (blurRow3x3, or blurRow3x3Go as its reference).
func (g *Gray) boxBlur3(out *Gray, ii *Integral, row3 func(dst, a, b, c []uint8, cs []uint16)) {
	w, h := g.W, g.H
	if cap(ii.cols) < w {
		ii.cols = make([]uint16, w)
	}
	cs := ii.cols[:w]
	for y := 0; y < h; y++ {
		y0, y1 := max(y-1, 0), min(y+1, h-1)
		rows := y1 - y0 + 1
		src := g.Pix[y0*w : (y1+1)*w]
		dst := out.Pix[y*w : (y+1)*w]
		if rows == 3 {
			row3(dst, src[:w], src[w:2*w], src[2*w:], cs)
			continue
		}
		for x := range cs {
			cs[x] = uint16(src[x])
		}
		for r := 1; r < rows; r++ {
			next := src[r*w : r*w+len(cs)]
			for x := range cs {
				cs[x] += uint16(next[x])
			}
		}
		blurRow3(dst, cs, uint32(rows), 0)
	}
}

// blurRow3x3Go writes one output row from its three source rows a, b, c:
// their column sums into cs, then blurRow3. It is blurRow3x3 off amd64 and
// the SSE2 routine's reference.
func blurRow3x3Go(dst, a, b, c []uint8, cs []uint16) {
	a, b, c = a[:len(cs)], b[:len(cs)], c[:len(cs)]
	for x := range cs {
		cs[x] = uint16(a[x]) + uint16(b[x]) + uint16(c[x])
	}
	blurRow3(dst, cs, 3, 0)
}

// blurRow3 writes one output row of the r = 1 blur from its column sums cs
// over rows source rows: each pixel averages the 1–3 in-bounds columns
// around it, rounding half up. Interior pixels 1 … from are left as they
// are (blurRow3x3's SSE2 routine wrote them), so cs need only hold columns
// 0, 1 and from onward; from ≤ len(cs)−2.
func blurRow3(dst []uint8, cs []uint16, rows uint32, from int) {
	w := len(cs)
	dst = dst[:w]
	if w == 1 {
		dst[0] = uint8((uint32(cs[0]) + rows/2) / rows)
		return
	}
	edge := 2 * rows
	dst[0] = uint8((uint32(cs[0]) + uint32(cs[1]) + edge/2) / edge)
	dst[w-1] = uint8((uint32(cs[w-2]) + uint32(cs[w-1]) + edge/2) / edge)
	l, m := uint32(cs[from]), uint32(cs[from+1])
	inner := dst[from+1 : w-1]
	if rows == 3 {
		for x, r := range cs[from+2:] {
			inner[x] = uint8((l + m + uint32(r) + 4) / 9)
			l, m = m, uint32(r)
		}
		return
	}
	area := 3 * rows
	for x, r := range cs[from+2:] {
		inner[x] = uint8((l + m + uint32(r) + area/2) / area)
		l, m = m, uint32(r)
	}
}
