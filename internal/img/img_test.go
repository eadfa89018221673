package img

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewGray(t *testing.T) {
	g := NewGray(4, 3)
	if g.W != 4 || g.H != 3 || len(g.Pix) != 12 {
		t.Fatalf("bad image: %dx%d len=%d", g.W, g.H, len(g.Pix))
	}
}

func TestNewGrayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGray(0,5) should panic")
		}
	}()
	NewGray(0, 5)
}

func TestAtSetBounds(t *testing.T) {
	g := NewGray(3, 3)
	g.Set(1, 1, 77)
	if g.At(1, 1) != 77 {
		t.Errorf("At(1,1) = %d, want 77", g.At(1, 1))
	}
	if g.At(-1, 0) != 0 || g.At(0, -1) != 0 || g.At(3, 0) != 0 || g.At(0, 3) != 0 {
		t.Error("out-of-bounds At should return 0")
	}
	g.Set(-1, 0, 99) // must not panic or corrupt
	g.Set(5, 5, 99)
	for _, p := range g.Pix {
		if p == 99 {
			t.Error("out-of-bounds Set wrote into the image")
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := NewGray(2, 2)
	g.Set(0, 0, 10)
	c := g.Clone()
	c.Set(0, 0, 20)
	if g.At(0, 0) != 10 {
		t.Error("Clone shares pixel storage")
	}
}

func TestCrop(t *testing.T) {
	g := NewGray(10, 10)
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			g.Set(x, y, uint8(y*10+x))
		}
	}
	c := g.Crop(RectWH(2, 3, 4, 5))
	if c.W != 4 || c.H != 5 {
		t.Fatalf("crop dims %dx%d, want 4x5", c.W, c.H)
	}
	if c.At(0, 0) != g.At(2, 3) || c.At(3, 4) != g.At(5, 7) {
		t.Error("crop pixel content wrong")
	}
}

func TestCropClipsAndNeverEmpty(t *testing.T) {
	g := NewGray(10, 10)
	c := g.Crop(RectWH(-5, -5, 8, 8)) // clips to [0,3)x[0,3)
	if c.W != 3 || c.H != 3 {
		t.Errorf("clipped crop dims %dx%d, want 3x3", c.W, c.H)
	}
	e := g.Crop(RectWH(20, 20, 5, 5)) // fully outside
	if e.W != 1 || e.H != 1 {
		t.Errorf("outside crop should yield 1x1, got %dx%d", e.W, e.H)
	}
}

func TestResizeIdentity(t *testing.T) {
	g := NewGray(5, 4)
	for i := range g.Pix {
		g.Pix[i] = uint8(i * 3)
	}
	r := g.Resize(5, 4)
	for i := range g.Pix {
		if r.Pix[i] != g.Pix[i] {
			t.Fatal("identity resize changed pixels")
		}
	}
}

func TestResizeConstant(t *testing.T) {
	g := NewGray(8, 8)
	g.Fill(100)
	r := g.Resize(3, 5)
	for _, p := range r.Pix {
		if p != 100 {
			t.Fatalf("resize of constant image produced %d", p)
		}
	}
}

func TestResizeDownPreservesMean(t *testing.T) {
	g := NewGray(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			g.Set(x, y, uint8(x*16))
		}
	}
	r := g.Resize(8, 8)
	var gm, rm float64
	for _, p := range g.Pix {
		gm += float64(p)
	}
	for _, p := range r.Pix {
		rm += float64(p)
	}
	gm /= float64(len(g.Pix))
	rm /= float64(len(r.Pix))
	if math.Abs(gm-rm) > 10 {
		t.Errorf("mean shifted: %v -> %v", gm, rm)
	}
}

func TestIntegralSum(t *testing.T) {
	g := NewGray(4, 4)
	for i := range g.Pix {
		g.Pix[i] = 1
	}
	ii := NewIntegral(g)
	if s := ii.Sum(0, 0, 4, 4); s != 16 {
		t.Errorf("full sum = %d, want 16", s)
	}
	if s := ii.Sum(1, 1, 3, 3); s != 4 {
		t.Errorf("inner sum = %d, want 4", s)
	}
	if s := ii.Sum(2, 2, 2, 2); s != 0 {
		t.Errorf("empty sum = %d, want 0", s)
	}
}

// Property: integral-image sums equal brute-force sums.
func TestIntegralMatchesBruteForce(t *testing.T) {
	g := NewGray(9, 7)
	for i := range g.Pix {
		g.Pix[i] = uint8((i * 37) % 251)
	}
	ii := NewIntegral(g)
	f := func(a, b, c, d uint8) bool {
		x0, y0 := int(a)%9, int(b)%7
		x1, y1 := x0+int(c)%(9-x0)+1, y0+int(d)%(7-y0)+1
		var want int64
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				want += int64(g.At(x, y))
			}
		}
		return ii.Sum(x0, y0, x1, y1) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBoxBlurConstant(t *testing.T) {
	g := NewGray(10, 10)
	g.Fill(42)
	b := g.BoxBlur(2)
	for _, p := range b.Pix {
		if p != 42 {
			t.Fatalf("blur of constant image produced %d", p)
		}
	}
}

func TestBoxBlurSmooths(t *testing.T) {
	g := NewGray(11, 11)
	g.Set(5, 5, 255)
	b := g.BoxBlur(1)
	if b.At(5, 5) >= 255 {
		t.Error("blur should reduce the impulse peak")
	}
	if b.At(4, 4) == 0 {
		t.Error("blur should spread the impulse")
	}
	if b2 := g.BoxBlur(0); b2.At(5, 5) != 255 {
		t.Error("radius-0 blur should be identity")
	}
}

func TestRectBasics(t *testing.T) {
	r := RectWH(10, 20, 30, 40)
	if r.W() != 30 || r.H() != 40 || r.Area() != 1200 {
		t.Fatalf("bad rect: %v", r)
	}
	cx, cy := r.Center()
	if cx != 25 || cy != 40 {
		t.Errorf("center = (%v,%v), want (25,40)", cx, cy)
	}
	rc := RectCenter(25, 40, 30, 40)
	if rc != r {
		t.Errorf("RectCenter mismatch: %v vs %v", rc, r)
	}
}

func TestRectEmptyAndInverted(t *testing.T) {
	inv := Rect{X0: 5, Y0: 5, X1: 2, Y1: 9}
	if !inv.Empty() || inv.W() != 0 || inv.Area() != 0 {
		t.Error("inverted rect should be empty with zero extent")
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := RectWH(0, 0, 10, 10)
	b := RectWH(5, 5, 10, 10)
	i := a.Intersect(b)
	if i.W() != 5 || i.H() != 5 {
		t.Errorf("intersect = %v, want 5x5", i)
	}
	u := a.Union(b)
	if u.W() != 15 || u.H() != 15 {
		t.Errorf("union = %v, want 15x15", u)
	}
	d := RectWH(100, 100, 5, 5)
	if !a.Intersect(d).Empty() {
		t.Error("disjoint intersect should be empty")
	}
	if a.Union(Rect{}) != a || (Rect{}).Union(a) != a {
		t.Error("union with empty should be identity")
	}
}

func TestIoU(t *testing.T) {
	a := RectWH(0, 0, 10, 10)
	if v := a.IoU(a); math.Abs(v-1) > 1e-12 {
		t.Errorf("self IoU = %v, want 1", v)
	}
	b := RectWH(5, 0, 10, 10)
	want := 50.0 / 150.0
	if v := a.IoU(b); math.Abs(v-want) > 1e-12 {
		t.Errorf("IoU = %v, want %v", v, want)
	}
	if v := a.IoU(RectWH(100, 100, 5, 5)); v != 0 {
		t.Errorf("disjoint IoU = %v, want 0", v)
	}
}

// Property: IoU is symmetric and in [0,1].
func TestIoUProperty(t *testing.T) {
	f := func(x0, y0, w0, h0, x1, y1, w1, h1 uint8) bool {
		a := RectWH(float64(x0), float64(y0), float64(w0)+1, float64(h0)+1)
		b := RectWH(float64(x1), float64(y1), float64(w1)+1, float64(h1)+1)
		ab, ba := a.IoU(b), b.IoU(a)
		return math.Abs(ab-ba) < 1e-12 && ab >= 0 && ab <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRectTransforms(t *testing.T) {
	r := RectWH(0, 0, 10, 10)
	tr := r.Translate(5, -3)
	if tr.X0 != 5 || tr.Y0 != -3 || tr.W() != 10 {
		t.Errorf("translate = %v", tr)
	}
	s := r.Scale(2)
	if s.W() != 20 || s.H() != 20 {
		t.Errorf("scale = %v", s)
	}
	scx, scy := s.Center()
	cx, cy := r.Center()
	if scx != cx || scy != cy {
		t.Error("scale should preserve center")
	}
}

func TestRectContains(t *testing.T) {
	r := RectWH(0, 0, 10, 10)
	if !r.Contains(5, 5) || r.Contains(10, 10) || r.Contains(-1, 5) {
		t.Error("Contains boundary semantics wrong")
	}
}

func TestFillRectAndStroke(t *testing.T) {
	g := NewGray(10, 10)
	g.FillRect(RectWH(2, 2, 3, 3), 200)
	if g.At(2, 2) != 200 || g.At(4, 4) != 200 || g.At(5, 5) == 200 {
		t.Error("FillRect extent wrong")
	}
	g2 := NewGray(10, 10)
	g2.StrokeRect(RectWH(1, 1, 5, 5), 150)
	if g2.At(1, 1) != 150 || g2.At(5, 5) != 150 {
		t.Error("StrokeRect corners missing")
	}
	if g2.At(3, 3) != 0 {
		t.Error("StrokeRect filled interior")
	}
}

func TestFillRectClips(t *testing.T) {
	g := NewGray(4, 4)
	g.FillRect(RectWH(-10, -10, 100, 100), 9) // must not panic
	for _, p := range g.Pix {
		if p != 9 {
			t.Fatal("full-cover fill incomplete")
		}
	}
}

func TestDrawLine(t *testing.T) {
	g := NewGray(10, 10)
	g.DrawLine(0, 0, 9, 9, 255)
	for i := 0; i < 10; i++ {
		if g.At(i, i) != 255 {
			t.Fatalf("diagonal missing at %d", i)
		}
	}
	g2 := NewGray(10, 10)
	g2.DrawLine(9, 5, 0, 5, 77) // reversed horizontal
	for x := 0; x < 10; x++ {
		if g2.At(x, 5) != 77 {
			t.Fatalf("horizontal missing at %d", x)
		}
	}
}

func TestFillCircle(t *testing.T) {
	g := NewGray(11, 11)
	g.FillCircle(5, 5, 3, 128)
	if g.At(5, 5) != 128 || g.At(5, 8) != 128 {
		t.Error("circle interior missing")
	}
	if g.At(0, 0) != 0 {
		t.Error("circle painted outside radius")
	}
}

func TestCropSubPixelExtents(t *testing.T) {
	g := NewGray(100, 100)
	c := g.Crop(RectWH(10, 10, 43, 0.5)) // fractional height
	if c.W < 1 || c.H < 1 {
		t.Fatalf("crop produced %dx%d image", c.W, c.H)
	}
	c2 := g.Crop(RectWH(10, 10, 0.3, 0.3))
	if c2.W != 1 || c2.H != 1 {
		t.Fatalf("sub-pixel crop produced %dx%d", c2.W, c2.H)
	}
}
