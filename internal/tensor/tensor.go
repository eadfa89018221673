// Package tensor implements the small dense-tensor math substrate backing
// the DNN inference engine: CHW feature maps, 2D convolution, max pooling,
// fully connected layers and the activation functions used by the YOLO- and
// GOTURN-shaped networks in the paper's pipeline.
//
// The implementation favours clarity and determinism over peak FLOPs — the
// reproduction's CPU-native mode characterizes relative computational cost,
// while full-scale platform latencies come from the calibrated models in
// internal/accel.
package tensor

import (
	"fmt"
	"math"
)

// T is a 3-dimensional tensor in CHW layout (channels, height, width),
// the layout used by the convolutional layers. A vector is represented as
// C=N, H=W=1.
type T struct {
	C, H, W int
	Data    []float32
}

// New allocates a zeroed C×H×W tensor. It panics on non-positive dims.
func New(c, h, w int) *T {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%dx%d", c, h, w))
	}
	return &T{C: c, H: h, W: w, Data: make([]float32, c*h*w)}
}

// NewVec allocates a zeroed length-n vector tensor (n×1×1).
func NewVec(n int) *T { return New(n, 1, 1) }

// Len returns the number of elements.
func (t *T) Len() int { return t.C * t.H * t.W }

// At returns element (c,y,x) without bounds checking beyond the slice's own.
func (t *T) At(c, y, x int) float32 { return t.Data[(c*t.H+y)*t.W+x] }

// Set writes element (c,y,x).
func (t *T) Set(c, y, x int, v float32) { t.Data[(c*t.H+y)*t.W+x] = v }

// Clone returns a deep copy of the tensor.
func (t *T) Clone() *T {
	out := New(t.C, t.H, t.W)
	copy(out.Data, t.Data)
	return out
}

// Fill sets every element to v.
func (t *T) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// SameShape reports whether t and o have identical dimensions.
func (t *T) SameShape(o *T) bool { return t.C == o.C && t.H == o.H && t.W == o.W }

func (t *T) String() string { return fmt.Sprintf("tensor(%dx%dx%d)", t.C, t.H, t.W) }

// MaxPool2DInto computes max pooling with a k×k window and the given
// stride, writing into dst (nil allocates). dst must not alias in. A NaN
// anywhere in a window makes that window's output NaN, matching the GEMM
// kernels' propagation of non-finite inputs.
func MaxPool2DInto(dst *T, in *T, k, stride int) *T {
	if k <= 0 || stride <= 0 {
		panic(fmt.Sprintf("tensor: invalid pool k=%d stride=%d", k, stride))
	}
	oh := (in.H-k)/stride + 1
	ow := (in.W-k)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: pool output %dx%d non-positive", oh, ow))
	}
	out := intoShape(dst, in.C, oh, ow)
	if k == 2 && stride == 2 {
		maxPool2x2(out, in)
	} else {
		maxPool(out, in, k, stride)
	}
	return out
}

// maxPool is the general k×k pooling loop: a window's first value, then
// every value in row order replacing it when greater or NaN. It is the
// reference maxPool2x2 is held to.
func maxPool(out, in *T, k, stride int) {
	oh, ow := out.H, out.W
	for c := 0; c < in.C; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := in.Data[(c*in.H+oy*stride)*in.W+ox*stride]
				for ky := 0; ky < k; ky++ {
					iy := oy*stride + ky
					rowOff := (c*in.H + iy) * in.W
					for kx := 0; kx < k; kx++ {
						v := in.Data[rowOff+ox*stride+kx]
						if v > best || v != v {
							best = v
						}
					}
				}
				out.Data[(c*oh+oy)*ow+ox] = best
			}
		}
	}
}

// maxPool2x2 is the 2×2 stride-2 pool every native network runs, on flat
// rows: an output row reads its two input rows as two slices, and each
// window takes its four values in maxPool's order under its comparison,
// so every output is bitwise maxPool's.
func maxPool2x2(out, in *T) {
	ow := out.W
	for c := 0; c < in.C; c++ {
		plane := in.Data[c*in.H*in.W : (c+1)*in.H*in.W]
		for oy := 0; oy < out.H; oy++ {
			top := plane[2*oy*in.W:][: 2*ow : 2*ow]
			bot := plane[(2*oy+1)*in.W:][: 2*ow : 2*ow]
			o := out.Data[(c*out.H+oy)*ow:][:ow]
			for ox := range o {
				a, b := top[2*ox:2*ox+2], bot[2*ox:2*ox+2]
				best := a[0]
				if v := a[1]; v > best || v != v {
					best = v
				}
				if v := b[0]; v > best || v != v {
					best = v
				}
				if v := b[1]; v > best || v != v {
					best = v
				}
				o[ox] = best
			}
		}
	}
}

// ReLU applies max(0,x) in place and returns the tensor.
func ReLU(t *T) *T {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
	return t
}

// LeakyReLU applies x<0 ? alpha*x : x in place (YOLO uses alpha=0.1).
func LeakyReLU(t *T, alpha float32) *T {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = alpha * v
		}
	}
	return t
}

// Sigmoid applies the logistic function in place.
func Sigmoid(t *T) *T {
	for i, v := range t.Data {
		t.Data[i] = 1 / (1 + exp32(-v))
	}
	return t
}

// Softmax normalizes the slice seg in place to a probability distribution
// using the numerically stable max-shift formulation.
func Softmax(seg []float32) {
	if len(seg) == 0 {
		return
	}
	maxV := seg[0]
	for _, v := range seg[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float32
	for i, v := range seg {
		e := exp32(v - maxV)
		seg[i] = e
		sum += e
	}
	if sum == 0 {
		return
	}
	for i := range seg {
		seg[i] /= sum
	}
}

// exp32 is a float32 exponential clamped to the activation range so that
// extreme logits saturate instead of overflowing to +Inf.
func exp32(x float32) float32 {
	if x > 60 {
		x = 60
	}
	if x < -60 {
		return 0
	}
	return float32(math.Exp(float64(x)))
}
