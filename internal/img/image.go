// Package img provides the lightweight grayscale image substrate shared by
// the detection, tracking and localization engines: pixel storage, cropping,
// resizing, integral images, box-filter smoothing and simple raster drawing
// for the synthetic scene generator.
//
// Images are 8-bit grayscale. The paper's pipeline consumes camera video;
// all three computational bottlenecks (YOLO, GOTURN, ORB-SLAM) operate on
// luminance or can be fed luminance without changing their computational
// profile, which is what this reproduction characterizes.
package img

import "fmt"

// Gray is an 8-bit grayscale image with row-major pixel storage.
type Gray struct {
	W, H int
	Pix  []uint8 // len == W*H, row-major
}

// NewGray allocates a zeroed W×H image. It panics on non-positive dims,
// which indicate a programming error.
func NewGray(w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("img: invalid dimensions %dx%d", w, h))
	}
	return &Gray{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x,y). Out-of-bounds reads return 0, which gives
// the feature detectors a defined border behaviour.
func (g *Gray) At(x, y int) uint8 {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return 0
	}
	return g.Pix[y*g.W+x]
}

// Set writes the pixel at (x,y); out-of-bounds writes are ignored.
func (g *Gray) Set(x, y int, v uint8) {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return
	}
	g.Pix[y*g.W+x] = v
}

// Clone returns a deep copy.
func (g *Gray) Clone() *Gray {
	out := NewGray(g.W, g.H)
	copy(out.Pix, g.Pix)
	return out
}

// Fill sets every pixel to v.
func (g *Gray) Fill(v uint8) {
	for i := range g.Pix {
		g.Pix[i] = v
	}
}

// Crop extracts the sub-image covering r clipped to the image bounds. If the
// clipped rectangle is empty a 1×1 black image is returned, so callers (the
// GOTURN crop path) never receive an unusable region.
func (g *Gray) Crop(r Rect) *Gray {
	return g.CropInto(nil, r)
}

// Resize scales the image to w×h with bilinear interpolation. Used by the
// DNN front-ends (YOLO/GOTURN resize the frame to the network input dims)
// and by the Fig 13 resolution sweep.
func (g *Gray) Resize(w, h int) *Gray {
	return g.ResizeInto(nil, w, h)
}

// BoxBlur returns the image smoothed with a (2r+1)² box filter; border
// pixels average the in-bounds part of their window. Radius 1 is a
// separable 3×3 sum; larger radii go through an integral image so cost is
// independent of r. The FAST detector in the SLAM engine runs on a lightly
// smoothed image, as ORB does.
func (g *Gray) BoxBlur(r int) *Gray {
	return g.BoxBlurInto(nil, nil, r)
}

// Integral is a summed-area table: Cum[y][x] holds the sum of all pixels in
// the rectangle [0,x)×[0,y).
type Integral struct {
	W, H int
	Cum  []int64 // (W+1)*(H+1)

	cols []uint16 // BoxBlurInto's radius-1 column-sum row
}

// NewIntegral computes the integral image of g.
func NewIntegral(g *Gray) *Integral {
	ii := &Integral{}
	ii.Reset(g)
	return ii
}

// Sum returns the pixel sum over the half-open rectangle [x0,x1)×[y0,y1).
// Coordinates must already be within [0,W]×[0,H].
func (ii *Integral) Sum(x0, y0, x1, y1 int) int64 {
	w1 := ii.W + 1
	return ii.Cum[y1*w1+x1] - ii.Cum[y0*w1+x1] - ii.Cum[y1*w1+x0] + ii.Cum[y0*w1+x0]
}
