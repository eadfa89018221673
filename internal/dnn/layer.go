// Package dnn provides the deep-neural-network substrate for the pipeline's
// two DNN engines (object detection and object tracking): a layer/network
// abstraction over internal/tensor, deterministic weight initialization, and
// exact per-layer cost accounting (multiply-accumulates, weight bytes,
// activation bytes).
//
// Cost accounting is the load-bearing part for the reproduction: the
// calibrated platform models in internal/accel convert a network's MAC and
// byte counts into per-platform latencies, which is how the paper's Figures
// 6, 10, 11 and 13 are regenerated without GPU/FPGA/ASIC hardware.
package dnn

import (
	"fmt"
	"sync"

	"adsim/internal/stats"
	"adsim/internal/tensor"
)

// Shape is a CHW tensor shape used for static shape/cost inference.
type Shape struct {
	C, H, W int
}

// Elems returns the number of elements in the shape.
func (s Shape) Elems() int { return s.C * s.H * s.W }

func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// Cost captures the computational footprint of a layer or network.
type Cost struct {
	MACs        int64 // multiply-accumulate operations
	WeightBytes int64 // parameter storage (float32)
	ActBytes    int64 // output activation storage (float32)
	ConvMACs    int64 // MACs in convolutional layers
	FCMACs      int64 // MACs in fully connected layers
}

// Add returns the element-wise sum of two costs.
func (c Cost) Add(o Cost) Cost {
	return Cost{
		MACs:        c.MACs + o.MACs,
		WeightBytes: c.WeightBytes + o.WeightBytes,
		ActBytes:    c.ActBytes + o.ActBytes,
		ConvMACs:    c.ConvMACs + o.ConvMACs,
		FCMACs:      c.FCMACs + o.FCMACs,
	}
}

// Scale returns the cost with MACs and activation bytes multiplied by f.
// Weight bytes are unchanged: resizing the input does not change parameter
// count. Used by the Fig 13 resolution sweep for convolutional workloads.
func (c Cost) Scale(f float64) Cost {
	return Cost{
		MACs:        int64(float64(c.MACs) * f),
		WeightBytes: c.WeightBytes,
		ActBytes:    int64(float64(c.ActBytes) * f),
		ConvMACs:    int64(float64(c.ConvMACs) * f),
		FCMACs:      c.FCMACs,
	}
}

// Activation selects the nonlinearity applied after a layer's affine part.
type Activation int

const (
	// Linear applies no nonlinearity.
	Linear Activation = iota
	// ReLU applies max(0,x).
	ReLU
	// Leaky applies LeakyReLU with slope 0.1, as YOLO does.
	Leaky
	// SigmoidAct applies the logistic function.
	SigmoidAct
)

func (a Activation) apply(t *tensor.T) *tensor.T {
	switch a {
	case ReLU:
		return tensor.ReLU(t)
	case Leaky:
		return tensor.LeakyReLU(t, 0.1)
	case SigmoidAct:
		return tensor.Sigmoid(t)
	default:
		return t
	}
}

// Layer is one network stage. Layers are immutable after construction and
// safe for concurrent Forward calls.
type Layer interface {
	// Name returns a short human-readable description ("conv3-256/2").
	Name() string
	// OutShape computes the output shape for a given input shape.
	OutShape(in Shape) Shape
	// CostAt computes the layer cost for a given input shape.
	CostAt(in Shape) Cost
	// Forward runs inference, drawing the output (and any intermediates)
	// from s and sharding the conv/FC kernels over up to workers
	// goroutines; a warm call allocates nothing. The input tensor is not
	// modified; the result aliases scratch memory. Results are bitwise
	// identical for any scratch state and any worker count.
	Forward(in *tensor.T, s *Scratch, workers int) *tensor.T
}

// convParams holds one input-size instantiation of a conv or FC layer's
// weights and biases.
type convParams struct {
	w, b []float32
}

// Conv is a 2D convolution layer with optional activation.
type Conv struct {
	OutC, K, Stride, Pad int
	Act                  Activation

	mu    sync.Mutex          // guards the lazy weight initialization below
	byInC map[int]*convParams // weights keyed by input channel count
	seed  int64
}

// NewConv constructs a convolution layer. Weights are deterministically
// initialized on first Forward (He-scaled uniform from seed), when the input
// channel count becomes known.
func NewConv(outC, k, stride, pad int, act Activation, seed int64) *Conv {
	if outC <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("dnn: invalid conv outC=%d k=%d stride=%d pad=%d", outC, k, stride, pad))
	}
	return &Conv{OutC: outC, K: k, Stride: stride, Pad: pad, Act: act, seed: seed}
}

func (c *Conv) Name() string {
	return fmt.Sprintf("conv%d-%d/%d", c.K, c.OutC, c.Stride)
}

func (c *Conv) OutShape(in Shape) Shape {
	if in.H+2*c.Pad < c.K || in.W+2*c.Pad < c.K {
		return Shape{C: c.OutC, H: 0, W: 0}
	}
	return Shape{
		C: c.OutC,
		H: (in.H+2*c.Pad-c.K)/c.Stride + 1,
		W: (in.W+2*c.Pad-c.K)/c.Stride + 1,
	}
}

func (c *Conv) CostAt(in Shape) Cost {
	out := c.OutShape(in)
	macs := int64(c.OutC) * int64(in.C) * int64(c.K*c.K) * int64(out.H) * int64(out.W)
	return Cost{
		MACs:        macs,
		ConvMACs:    macs,
		WeightBytes: 4 * int64(c.OutC) * int64(in.C) * int64(c.K*c.K),
		ActBytes:    4 * int64(out.Elems()),
	}
}

// params returns the parameter set for an input channel count, initializing
// it on first use. The cache is keyed by inC, so a network shared across
// two input shapes keeps both instantiations instead of re-seeding (and
// silently swapping) weights every time the shape alternates. The mutex
// makes lazy initialization safe under concurrent Forward calls (the
// parallel tracker pool runs many inferences through one shared network).
func (c *Conv) params(inC int) *convParams {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.byInC[inC]; ok {
		return p
	}
	n := c.OutC * inC * c.K * c.K
	rng := stats.NewRNG(c.seed)
	// He-style scale keeps activations in range through deep stacks.
	scale := 2.0 / float64(inC*c.K*c.K)
	w := make([]float32, n)
	for i := range w {
		w[i] = float32(rng.Uniform(-scale, scale))
	}
	b := make([]float32, c.OutC)
	for i := range b {
		b[i] = float32(rng.Uniform(-0.01, 0.01))
	}
	p := &convParams{w: w, b: b}
	if c.byInC == nil {
		c.byInC = make(map[int]*convParams)
	}
	c.byInC[inC] = p
	return p
}

func (c *Conv) Forward(in *tensor.T, s *Scratch, workers int) *tensor.T {
	p := c.params(in.C)
	dst := s.next(c.OutShape(Shape{C: in.C, H: in.H, W: in.W}))
	// The GEMM form is ~4x faster than the direct loop at these shapes
	// (property-tested equivalent in internal/tensor).
	out := tensor.Conv2DIm2ColParInto(dst, in, p.w, p.b, c.OutC, c.K, c.Stride, c.Pad, workers, &s.arena)
	return c.Act.apply(out)
}

// MaxPool is a max-pooling layer.
type MaxPool struct {
	K, Stride int
}

// NewMaxPool constructs a pooling layer.
func NewMaxPool(k, stride int) *MaxPool {
	if k <= 0 || stride <= 0 {
		panic(fmt.Sprintf("dnn: invalid pool k=%d stride=%d", k, stride))
	}
	return &MaxPool{K: k, Stride: stride}
}

func (p *MaxPool) Name() string { return fmt.Sprintf("maxpool%d/%d", p.K, p.Stride) }

func (p *MaxPool) OutShape(in Shape) Shape {
	if in.H < p.K || in.W < p.K {
		return Shape{C: in.C, H: 0, W: 0}
	}
	return Shape{C: in.C, H: (in.H-p.K)/p.Stride + 1, W: (in.W-p.K)/p.Stride + 1}
}

func (p *MaxPool) CostAt(in Shape) Cost {
	out := p.OutShape(in)
	// Pooling comparisons are counted as MACs-equivalent at 1 op per tap;
	// they are negligible next to conv cost but kept for completeness.
	return Cost{
		MACs:     int64(out.Elems()) * int64(p.K*p.K),
		ActBytes: 4 * int64(out.Elems()),
	}
}

func (p *MaxPool) Forward(in *tensor.T, s *Scratch, _ int) *tensor.T {
	dst := s.next(p.OutShape(Shape{C: in.C, H: in.H, W: in.W}))
	return tensor.MaxPool2DInto(dst, in, p.K, p.Stride)
}

// BatchNorm is an inference-time batch-normalization layer: the learned
// scale/shift and running statistics fold into one per-channel affine
// transform y = a·x + b, which is how deployed YOLOv2 executes its BN.
type BatchNorm struct {
	mu   sync.Mutex // guards the lazy parameter initialization
	a, b []float32
	seed int64
}

// NewBatchNorm constructs a batch-norm layer with deterministic
// near-identity folded parameters.
func NewBatchNorm(seed int64) *BatchNorm { return &BatchNorm{seed: seed} }

func (bn *BatchNorm) Name() string { return "batchnorm" }

func (bn *BatchNorm) OutShape(in Shape) Shape { return in }

func (bn *BatchNorm) CostAt(in Shape) Cost {
	return Cost{
		MACs:        int64(in.Elems()), // one multiply-add per element
		WeightBytes: 8 * int64(in.C),   // folded a,b per channel
		ActBytes:    4 * int64(in.Elems()),
	}
}

// params returns the folded per-channel affine parameters, initializing
// them on first use (safe under concurrent Forward calls).
func (bn *BatchNorm) params(c int) (a, b []float32) {
	bn.mu.Lock()
	defer bn.mu.Unlock()
	if len(bn.a) != c {
		rng := stats.NewRNG(bn.seed)
		bn.a = make([]float32, c)
		bn.b = make([]float32, c)
		for i := 0; i < c; i++ {
			bn.a[i] = float32(rng.Uniform(0.8, 1.2))
			bn.b[i] = float32(rng.Uniform(-0.05, 0.05))
		}
	}
	return bn.a, bn.b
}

func (bn *BatchNorm) Forward(in *tensor.T, s *Scratch, _ int) *tensor.T {
	out := s.next(Shape{C: in.C, H: in.H, W: in.W})
	as, bs := bn.params(in.C)
	hw := in.H * in.W
	for c := 0; c < in.C; c++ {
		a, b := as[c], bs[c]
		src := in.Data[c*hw : (c+1)*hw]
		seg := out.Data[c*hw : (c+1)*hw]
		for i, v := range src {
			seg[i] = a*v + b
		}
	}
	return out
}

// Reorg is YOLOv2's space-to-depth layer: each Stride×Stride spatial block
// becomes Stride² channels, so a C×H×W map reorganizes to
// (C·S²)×(H/S)×(W/S). It moves data without arithmetic; YOLOv2 uses it to
// bring the 26×26×512 passthrough map to the 13×13 head resolution.
type Reorg struct {
	Stride int
}

// NewReorg constructs a space-to-depth layer. It panics on stride < 2.
func NewReorg(stride int) *Reorg {
	if stride < 2 {
		panic(fmt.Sprintf("dnn: invalid reorg stride %d", stride))
	}
	return &Reorg{Stride: stride}
}

func (r *Reorg) Name() string { return fmt.Sprintf("reorg/%d", r.Stride) }

func (r *Reorg) OutShape(in Shape) Shape {
	if in.H%r.Stride != 0 || in.W%r.Stride != 0 {
		return Shape{C: in.C * r.Stride * r.Stride, H: 0, W: 0}
	}
	return Shape{C: in.C * r.Stride * r.Stride, H: in.H / r.Stride, W: in.W / r.Stride}
}

func (r *Reorg) CostAt(in Shape) Cost {
	return Cost{ActBytes: 4 * int64(in.Elems())} // pure data movement
}

// Forward writes the space-to-depth permutation. Every input element maps
// to exactly one output element (a bijection), so the output slot is fully
// written and needs no pre-clearing.
func (r *Reorg) Forward(in *tensor.T, sc *Scratch, _ int) *tensor.T {
	out := sc.next(r.OutShape(Shape{C: in.C, H: in.H, W: in.W}))
	s := r.Stride
	for c := 0; c < in.C; c++ {
		for y := 0; y < in.H; y++ {
			for x := 0; x < in.W; x++ {
				// Sub-position within the block selects the channel slot.
				oc := c*s*s + (y%s)*s + (x % s)
				out.Set(oc, y/s, x/s, in.At(c, y, x))
			}
		}
	}
	return out
}

// FC is a fully connected layer over the flattened input.
type FC struct {
	OutN int
	Act  Activation

	mu    sync.Mutex          // guards the lazy weight initialization below
	byInN map[int]*convParams // weights keyed by input length
	seed  int64
}

// NewFC constructs a fully connected layer with deterministic lazy weights.
func NewFC(outN int, act Activation, seed int64) *FC {
	if outN <= 0 {
		panic(fmt.Sprintf("dnn: invalid fc outN=%d", outN))
	}
	return &FC{OutN: outN, Act: act, seed: seed}
}

func (f *FC) Name() string { return fmt.Sprintf("fc-%d", f.OutN) }

func (f *FC) OutShape(in Shape) Shape { return Shape{C: f.OutN, H: 1, W: 1} }

func (f *FC) CostAt(in Shape) Cost {
	macs := int64(f.OutN) * int64(in.Elems())
	return Cost{
		MACs:        macs,
		FCMACs:      macs,
		WeightBytes: 4 * macs,
		ActBytes:    4 * int64(f.OutN),
	}
}

// params returns the parameter set for an input length, initializing it on
// first use. As with Conv, the cache is keyed by inN so alternating input
// shapes keep both instantiations instead of re-seeding mid-run (safe under
// concurrent Forward calls).
func (f *FC) params(inN int) *convParams {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p, ok := f.byInN[inN]; ok {
		return p
	}
	rng := stats.NewRNG(f.seed)
	scale := 2.0 / float64(inN)
	w := make([]float32, f.OutN*inN)
	for i := range w {
		w[i] = float32(rng.Uniform(-scale, scale))
	}
	b := make([]float32, f.OutN)
	for i := range b {
		b[i] = float32(rng.Uniform(-0.01, 0.01))
	}
	p := &convParams{w: w, b: b}
	if f.byInN == nil {
		f.byInN = make(map[int]*convParams)
	}
	f.byInN[inN] = p
	return p
}

func (f *FC) Forward(in *tensor.T, s *Scratch, workers int) *tensor.T {
	p := f.params(in.Len())
	dst := s.next(Shape{C: f.OutN, H: 1, W: 1})
	out := tensor.FullyConnectedParInto(dst, in, p.w, p.b, f.OutN, workers)
	return f.Act.apply(out)
}
