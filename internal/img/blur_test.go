package img

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"adsim/internal/testutil"
)

// boxBlurIntegralRef is the integral-image box blur every radius once ran
// through: the reference the separable radius-1 path must match bit for
// bit.
func boxBlurIntegralRef(g *Gray, r int) *Gray {
	out := NewGray(g.W, g.H)
	ii := NewIntegral(g)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			x0, y0 := max(x-r, 0), max(y-r, 0)
			x1, y1 := min(x+r+1, g.W), min(y+r+1, g.H)
			sum := ii.Sum(x0, y0, x1, y1)
			area := int64((x1 - x0) * (y1 - y0))
			out.Pix[y*g.W+x] = uint8((sum + area/2) / area)
		}
	}
	return out
}

func randomGray(rng *rand.Rand, w, h int) *Gray {
	g := NewGray(w, h)
	for i := range g.Pix {
		g.Pix[i] = uint8(rng.Intn(256))
	}
	return g
}

// The separable radius-1 blur equals the integral-image reference on every
// degenerate and odd shape, on saturated images (where the column sums
// reach their 3·255 ceiling and rounding is tightest), and across scratch
// reuse between shapes.
func TestBoxBlur3MatchesIntegralRef(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := [][2]int{
		{1, 1}, {1, 2}, {2, 1}, {1, 9}, {9, 1}, {2, 2}, {2, 3}, {3, 2},
		{3, 3}, {5, 4}, {7, 7}, {13, 5}, {31, 17}, {64, 48}, {511, 3},
	}
	var dst Gray
	var ii Integral
	for _, sh := range shapes {
		w, h := sh[0], sh[1]
		inputs := []*Gray{randomGray(rng, w, h), NewGray(w, h), NewGray(w, h)}
		inputs[1].Fill(255)
		for i := range inputs[2].Pix {
			inputs[2].Pix[i] = uint8(251 + rng.Intn(5))
		}
		for k, g := range inputs {
			want := boxBlurIntegralRef(g, 1)
			if got := g.BoxBlur(1); !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("%dx%d input %d: BoxBlur(1) differs from the integral reference", w, h, k)
			}
			if got := g.BoxBlurInto(&dst, &ii, 1); !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("%dx%d input %d: BoxBlurInto(1) with reused scratch differs", w, h, k)
			}
		}
	}
}

// Exhaustive rounding check: every 3×3 window sum 0..2295 (and every
// clipped-border sum) lands on the same byte as the reference. A 3×N image
// whose columns sweep the sums covers the interior divide-by-9.
func TestBoxBlur3RoundingSweep(t *testing.T) {
	for _, h := range []int{1, 2, 3, 4} {
		g := NewGray(3*256, h)
		for y := 0; y < h; y++ {
			for x := 0; x < g.W; x++ {
				g.Pix[y*g.W+x] = uint8((x*7 + y*131) % 256)
			}
		}
		if got, want := g.BoxBlur(1), boxBlurIntegralRef(g, 1); !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("height %d: rounding sweep differs from the integral reference", h)
		}
	}
}

// blurGo is the radius-1 blur with every three-row row through the Go form
// (blurRow3x3Go): the reference the SSE2 routine must match bit for bit.
func blurGo(g *Gray) *Gray {
	out := NewGray(g.W, g.H)
	g.boxBlur3(out, &Integral{}, blurRow3x3Go)
	return out
}

// The SSE2 routine and the Go form agree on every width 1–70 (the routine
// takes none of it below 10 and leaves a 0–7 column tail above) at heights
// 1–5, on random, saturated and all-zero pixels, with one scratch reused
// across shapes.
func TestBoxBlur3SSEMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var dst Gray
	var ii Integral
	for w := 1; w <= 70; w++ {
		for h := 1; h <= 5; h++ {
			full := NewGray(w, h)
			full.Fill(255)
			for k, g := range []*Gray{randomGray(rng, w, h), full, NewGray(w, h)} {
				want := blurGo(g)
				if got := g.BoxBlurInto(&dst, &ii, 1); !bytes.Equal(got.Pix, want.Pix) {
					t.Fatalf("%dx%d input %d: BoxBlurInto(1) differs from the Go form", w, h, k)
				}
			}
		}
	}
}

// The interior divide: PMULHUW by 7282 = ⌈65536/9⌉ is (s+4)/9 for every
// sum s up to 2299, past the largest a 3×3 window of bytes can reach
// (9·255 = 2295). 7282·9 = 65536 + 2, so the product overshoots n/9 by
// 2n/(9·65536) < 1/9 for n < 32768: never enough to cross an integer.
func TestBlurDivideBy9Multiply(t *testing.T) {
	for s := uint32(0); s <= 2299; s++ {
		if got, want := ((s+4)*7282)>>16, (s+4)/9; got != want {
			t.Fatalf("sum %d: ((s+4)·7282)>>16 = %d, (s+4)/9 = %d", s, got, want)
		}
	}
}

// Every reachable window sum 0…2295 goes through the blur itself: a 3×10
// image of q = s/9 with s%9 of the left window's pixels raised by one puts
// s under output column 1, which the routine computes on amd64.
func TestBoxBlur3EveryWindowSum(t *testing.T) {
	g := NewGray(10, 3)
	var dst Gray
	var ii Integral
	for s := 0; s <= 9*255; s++ {
		g.Fill(uint8(s / 9))
		for i := 0; i < s%9; i++ {
			g.Pix[(i/3)*g.W+i%3]++
		}
		got := g.BoxBlurInto(&dst, &ii, 1)
		if want := uint8((s + 4) / 9); got.Pix[g.W+1] != want {
			t.Fatalf("window sum %d: blurred to %d, want %d", s, got.Pix[g.W+1], want)
		}
		if want := blurGo(g); !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("window sum %d: image differs from the Go form", s)
		}
	}
}

// FuzzBoxBlur3 checks the radius-1 blur against the Go form on random
// shapes and pixels, with a share of saturated pixels so the column sums
// reach their ceiling. `make fuzz-smoke` runs it for 10s.
func FuzzBoxBlur3(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3), uint8(0))
	f.Add(int64(2), uint8(70), uint8(5), uint8(128))
	f.Add(int64(3), uint8(1), uint8(1), uint8(255))
	f.Add(int64(4), uint8(17), uint8(2), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, w, h, sat uint8) {
		W, H := 1+int(w)%130, 1+int(h)%8
		rng := rand.New(rand.NewSource(seed))
		g := randomGray(rng, W, H)
		for i := range g.Pix {
			if rng.Intn(256) < int(sat) {
				g.Pix[i] = 255
			}
		}
		if got, want := g.BoxBlur(1), blurGo(g); !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("%dx%d: BoxBlur(1) differs from the Go form", W, H)
		}
	})
}

// The other radii keep the integral path and still agree with it.
func TestBoxBlurOtherRadiiMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, r := range []int{2, 3, 7} {
		for _, sh := range [][2]int{{1, 1}, {5, 3}, {17, 11}} {
			g := randomGray(rng, sh[0], sh[1])
			if got, want := g.BoxBlur(r), boxBlurIntegralRef(g, r); !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("r=%d %dx%d: BoxBlur differs from the integral reference", r, sh[0], sh[1])
			}
		}
	}
}

// After its first call at a given width, the radius-1 path allocates
// nothing: the column-sum row lives in the Integral.
func TestAllocBoxBlur3(t *testing.T) {
	g := randomGray(rand.New(rand.NewSource(1)), 512, 256)
	var dst Gray
	var ii Integral
	g.BoxBlurInto(&dst, &ii, 1)
	if testutil.RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race; make alloc-gate runs this uninstrumented")
	}
	if n := testing.AllocsPerRun(20, func() { g.BoxBlurInto(&dst, &ii, 1) }); n != 0 {
		t.Errorf("BoxBlurInto(r=1) with warm scratch: %.1f allocs/call, want 0", n)
	}
}

func BenchmarkBoxBlur3(b *testing.B) {
	g := randomGray(rand.New(rand.NewSource(1)), 512, 256)
	var dst Gray
	var ii Integral
	for _, impl := range []struct {
		name string
		fn   func()
	}{
		{"separable", func() { g.BoxBlurInto(&dst, &ii, 1) }},
		{"separable-go", func() { g.boxBlur3(&dst, &ii, blurRow3x3Go) }},
		{"integral-ref", func() { boxBlurIntegralRef(g, 1) }},
	} {
		b.Run(fmt.Sprintf("%s/512x256", impl.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				impl.fn()
			}
		})
	}
}
