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
		{"integral-ref", func() { boxBlurIntegralRef(g, 1) }},
	} {
		b.Run(fmt.Sprintf("%s/512x256", impl.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				impl.fn()
			}
		})
	}
}
