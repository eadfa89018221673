package img

import "fmt"

// Rect is an axis-aligned rectangle in pixel (or normalized) coordinates,
// stored as corners so that width/height arithmetic stays exact. X0/Y0 is
// the top-left corner, X1/Y1 the exclusive bottom-right.
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// RectWH builds a rectangle from a top-left corner and a size.
func RectWH(x, y, w, h float64) Rect {
	return Rect{X0: x, Y0: y, X1: x + w, Y1: y + h}
}

// RectCenter builds a rectangle from a center point and a size.
func RectCenter(cx, cy, w, h float64) Rect {
	return Rect{X0: cx - float64(w/2), Y0: cy - float64(h/2), X1: cx + float64(w/2), Y1: cy + float64(h/2)}
}

// W returns the rectangle width (0 when inverted).
func (r Rect) W() float64 {
	if r.X1 < r.X0 {
		return 0
	}
	return r.X1 - r.X0
}

// H returns the rectangle height (0 when inverted).
func (r Rect) H() float64 {
	if r.Y1 < r.Y0 {
		return 0
	}
	return r.Y1 - r.Y0
}

// Area returns W*H.
func (r Rect) Area() float64 { return float64(r.W() * r.H()) }

// Empty reports whether the rectangle has no area.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Center returns the rectangle's center point.
func (r Rect) Center() (float64, float64) {
	return float64((r.X0 + r.X1) / 2), float64((r.Y0 + r.Y1) / 2)
}

// Translate returns the rectangle shifted by (dx,dy).
func (r Rect) Translate(dx, dy float64) Rect {
	return Rect{r.X0 + dx, r.Y0 + dy, r.X1 + dx, r.Y1 + dy}
}

// Scale returns the rectangle scaled about its center by factor s.
func (r Rect) Scale(s float64) Rect {
	cx, cy := r.Center()
	return RectCenter(cx, cy, r.W()*s, r.H()*s)
}

// Clip returns the rectangle intersected with [x0,x1)×[y0,y1) given as ints.
func (r Rect) Clip(x0, y0, x1, y1 int) Rect {
	out := r
	if out.X0 < float64(x0) {
		out.X0 = float64(x0)
	}
	if out.Y0 < float64(y0) {
		out.Y0 = float64(y0)
	}
	if out.X1 > float64(x1) {
		out.X1 = float64(x1)
	}
	if out.Y1 > float64(y1) {
		out.Y1 = float64(y1)
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Intersect returns the overlap of r and o (the zero Rect when disjoint).
func (r Rect) Intersect(o Rect) Rect {
	out := Rect{
		X0: maxf(r.X0, o.X0), Y0: maxf(r.Y0, o.Y0),
		X1: minf(r.X1, o.X1), Y1: minf(r.Y1, o.Y1),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Union returns the smallest rectangle containing both r and o.
func (r Rect) Union(o Rect) Rect {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	return Rect{
		X0: minf(r.X0, o.X0), Y0: minf(r.Y0, o.Y0),
		X1: maxf(r.X1, o.X1), Y1: maxf(r.Y1, o.Y1),
	}
}

// IoU returns the intersection-over-union overlap ratio in [0,1], the
// standard detection/tracking association metric.
func (r Rect) IoU(o Rect) float64 {
	inter := r.Intersect(o).Area()
	if inter == 0 {
		return 0
	}
	union := r.Area() + o.Area() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// Contains reports whether the point (x,y) lies inside the rectangle.
func (r Rect) Contains(x, y float64) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

func (r Rect) String() string {
	return fmt.Sprintf("[%.1f,%.1f %.1fx%.1f]", r.X0, r.Y0, r.W(), r.H())
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
