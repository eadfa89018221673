package img

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"adsim/internal/testutil"
)

// resizeIntoRef is ResizeInto as a per-pixel loop that recomputes each
// column's taps at every pixel: the reference the column-table form must
// match bit for bit.
func resizeIntoRef(g, dst *Gray, w, h int) *Gray {
	out := grayInto(dst, w, h)
	if w == g.W && h == g.H {
		copy(out.Pix, g.Pix)
		return out
	}
	xRatio := float64(g.W) / float64(w)
	yRatio := float64(g.H) / float64(h)
	for y := 0; y < h; y++ {
		sy := float64((float64(y) + 0.5) * yRatio)
		y0 := int(sy - 0.5)
		fy := sy - 0.5 - float64(y0)
		if y0 < 0 {
			y0, fy = 0, 0
		}
		y1 := y0 + 1
		if y1 >= g.H {
			y1 = g.H - 1
		}
		for x := 0; x < w; x++ {
			sx := float64((float64(x) + 0.5) * xRatio)
			x0 := int(sx - 0.5)
			fx := sx - 0.5 - float64(x0)
			if x0 < 0 {
				x0, fx = 0, 0
			}
			x1 := x0 + 1
			if x1 >= g.W {
				x1 = g.W - 1
			}
			p00 := float64(g.Pix[y0*g.W+x0])
			p01 := float64(g.Pix[y0*g.W+x1])
			p10 := float64(g.Pix[y1*g.W+x0])
			p11 := float64(g.Pix[y1*g.W+x1])
			top := float64(p00*(1-fx)) + float64(p01*fx)
			bot := float64(p10*(1-fx)) + float64(p11*fx)
			out.Pix[y*w+x] = uint8(float64(top*(1-fy)) + float64(bot*fy) + 0.5)
		}
	}
	return out
}

// ResizeInto equals the per-pixel reference on random up- and down-scales:
// 1×1 and one-row or one-column sources, outputs wider than one column
// chunk (so a row spans several chunks, the last one partial), and the
// pipeline's own shapes, with one destination reused across every shape.
func TestResizeIntoMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type shape struct{ sw, sh, w, h int }
	shapes := []shape{
		{1, 1, 1, 1}, {1, 1, 7, 3}, {1, 1, 3*resizeChunk + 5, 2},
		{1, 9, 4, 4}, {9, 1, 4, 4}, {2, 2, 1, 1}, {5, 4, 5, 4},
		{512, 256, 64, 64}, {512, 256, 96, 96}, {80, 60, 32, 32}, {24, 18, 32, 32},
		{40, 30, resizeChunk, 3}, {40, 30, resizeChunk + 1, 3}, {300, 7, 2*resizeChunk + 17, 5},
	}
	for range 3000 {
		shapes = append(shapes, shape{1 + rng.Intn(150), 1 + rng.Intn(40), 1 + rng.Intn(3*resizeChunk), 1 + rng.Intn(12)})
	}
	var got, want Gray
	for _, s := range shapes {
		g := randomGray(rng, s.sw, s.sh)
		g.ResizeInto(&got, s.w, s.h)
		resizeIntoRef(g, &want, s.w, s.h)
		if got.W != s.w || got.H != s.h || !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("%dx%d→%dx%d: ResizeInto differs from the per-pixel reference", s.sw, s.sh, s.w, s.h)
		}
	}
}

// Alloc gate (run by `make alloc-gate`): into a destination already large
// enough, ResizeInto allocates nothing, whatever the output width — the
// column tables live on the stack, a chunk at a time.
func TestAllocResizeInto(t *testing.T) {
	g := randomGray(rand.New(rand.NewSource(1)), 512, 256)
	var dst Gray
	g.ResizeInto(&dst, 3*resizeChunk+5, 64)
	if testutil.RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race; make alloc-gate runs this uninstrumented")
	}
	for _, w := range []int{32, 64, 3*resizeChunk + 5} {
		if n := testing.AllocsPerRun(20, func() { g.ResizeInto(&dst, w, 64) }); n != 0 {
			t.Errorf("ResizeInto to %dx64 with a warm destination: %.1f allocs/call, want 0", w, n)
		}
	}
}

// BenchmarkResizeInto times the column-table form (fast) beside the
// per-pixel reference (ref) at DET's input shape (a 512×256 frame to 64×64)
// and TRA's (an 80×60 crop to 32×32).
func BenchmarkResizeInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []struct {
		name string
		src  *Gray
		size int
	}{
		{"det=512x256to64", randomGray(rng, 512, 256), 64},
		{"tra=80x60to32", randomGray(rng, 80, 60), 32},
	} {
		var dst Gray
		for _, impl := range []struct {
			name string
			fn   func()
		}{
			{"fast", func() { s.src.ResizeInto(&dst, s.size, s.size) }},
			{"ref", func() { resizeIntoRef(s.src, &dst, s.size, s.size) }},
		} {
			b.Run(fmt.Sprintf("%s/%s", s.name, impl.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					impl.fn()
				}
			})
		}
	}
}
