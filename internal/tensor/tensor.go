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

// DigestSeed is the FNV-1a offset basis, the state a digest starts from.
const DigestSeed uint64 = 14695981039346656037

// Fold is one 64-bit FNV-1a step over the word w.
func Fold(h, w uint64) uint64 { return (h ^ w) * 1099511628211 }

// Digest folds the float32 bit pattern of every element of data into h,
// one Fold per element, in order, so a changed bit anywhere (a NaN payload
// included) changes the digest, short of a hash collision.
func Digest(h uint64, data []float32) uint64 {
	for _, v := range data {
		h = Fold(h, uint64(math.Float32bits(v)))
	}
	return h
}

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
// rows: an output row reads its two input rows as two slices and runs
// through poolRow, whose every output is bitwise maxPool's.
func maxPool2x2(out, in *T) {
	ow := out.W
	for c := 0; c < in.C; c++ {
		plane := in.Data[c*in.H*in.W : (c+1)*in.H*in.W]
		for oy := 0; oy < out.H; oy++ {
			top := plane[2*oy*in.W:][: 2*ow : 2*ow]
			bot := plane[(2*oy+1)*in.W:][: 2*ow : 2*ow]
			poolRow(out.Data[(c*out.H+oy)*ow:][:ow], top, bot)
		}
	}
}

// poolRowGo is the pool's row loop in plain Go: o[ox] is the window
// top[2ox], top[2ox+1], bot[2ox], bot[2ox+1] taken in that order under
// maxPool's comparison. It is poolRow on every GOARCH but amd64, and on
// amd64 the reference the SSE routine is held to.
func poolRowGo(o, top, bot []float32) {
	top, bot = top[:2*len(o)], bot[:2*len(o)]
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

// ReLU applies max(0,x) in place and returns the tensor.
func ReLU(t *T) *T {
	relu(t.Data)
	return t
}

// reluGo zeroes v's negative elements (−0 and NaN stay as they are). It is
// relu off amd64 and the reference the SSE routine is held to.
func reluGo(v []float32) {
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		}
	}
}

// LeakyReLU applies x<0 ? alpha*x : x in place (YOLO uses alpha=0.1).
func LeakyReLU(t *T, alpha float32) *T {
	leaky(t.Data, alpha)
	return t
}

// leakyGo scales v's negative elements by alpha. It is leaky off amd64 and
// the reference the SSE routine is held to.
func leakyGo(v []float32, alpha float32) {
	for i, x := range v {
		if x < 0 {
			v[i] = alpha * x
		}
	}
}

// Sigmoid applies the logistic function in place.
func Sigmoid(t *T) *T {
	for i, v := range t.Data {
		t.Data[i] = 1 / (1 + exp32(-v))
	}
	return t
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
