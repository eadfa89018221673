package img

// Drawing primitives used by the synthetic scene generator. These are
// deliberately simple rasterizers: the goal is frames with controllable
// texture, corners and objects, not photorealism.

// FillRect paints every pixel inside r with value v.
func (g *Gray) FillRect(r Rect, v uint8) {
	c := r.Clip(0, 0, g.W, g.H)
	if c.Empty() {
		return
	}
	for y := int(c.Y0); y < int(c.Y1); y++ {
		row := g.Pix[y*g.W+int(c.X0) : y*g.W+int(c.X1)]
		for i := range row {
			row[i] = v
		}
	}
}

// StrokeRect draws the 1-pixel outline of r with value v. Outlines create
// the strong gradients that corner detectors respond to.
func (g *Gray) StrokeRect(r Rect, v uint8) {
	x0, y0, x1, y1 := int(r.X0), int(r.Y0), int(r.X1)-1, int(r.Y1)-1
	for x := x0; x <= x1; x++ {
		g.Set(x, y0, v)
		g.Set(x, y1, v)
	}
	for y := y0; y <= y1; y++ {
		g.Set(x0, y, v)
		g.Set(x1, y, v)
	}
}

// DrawLine draws a 1-pixel line from (x0,y0) to (x1,y1) using Bresenham's
// algorithm. Used for lane markings in the scene generator.
func (g *Gray) DrawLine(x0, y0, x1, y1 int, v uint8) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx := 1
	if x0 > x1 {
		sx = -1
	}
	sy := 1
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		g.Set(x0, y0, v)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

// FillCircle paints a filled disc of radius r centered at (cx,cy).
func (g *Gray) FillCircle(cx, cy, r int, v uint8) {
	for y := cy - r; y <= cy+r; y++ {
		for x := cx - r; x <= cx+r; x++ {
			dx, dy := x-cx, y-cy
			if dx*dx+dy*dy <= r*r {
				g.Set(x, y, v)
			}
		}
	}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
