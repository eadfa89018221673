package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewAndIndexing(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	x.Set(1, 2, 3, 7)
	if x.At(1, 2, 3) != 7 {
		t.Error("At/Set mismatch")
	}
	if x.Data[23] != 7 {
		t.Error("CHW layout: (1,2,3) should be last element")
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0,1,1) should panic")
		}
	}()
	New(0, 1, 1)
}

func TestCloneFillSameShape(t *testing.T) {
	x := New(1, 2, 2)
	x.Fill(3)
	y := x.Clone()
	y.Set(0, 0, 0, 9)
	if x.At(0, 0, 0) != 3 {
		t.Error("Clone shares storage")
	}
	if !x.SameShape(y) || x.SameShape(New(2, 2, 2)) {
		t.Error("SameShape wrong")
	}
	if x.String() != "tensor(1x2x2)" {
		t.Errorf("String = %q", x.String())
	}
}

// Conv2D computes a 2D convolution of in with weights w by the direct
// nested loop, writing into a new tensor. Weights are laid out
// [outC][inC][k][k]; bias has length outC and may be nil. The output has
// dims outC × ((H+2p−k)/s+1) × ((W+2p−k)/s+1). It is the differential
// reference the im2col kernels are held to (to rounding tolerance, and
// exactly for NaN/Inf propagation); no inference path runs it.
func Conv2D(in *T, w []float32, bias []float32, outC, k, stride, pad int) *T {
	oh, ow := convShape(in, len(w), outC, k, stride, pad)
	out := New(outC, oh, ow)
	for oc := 0; oc < outC; oc++ {
		var b float32
		if bias != nil {
			b = bias[oc]
		}
		wBase := oc * in.C * k * k
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*stride - pad
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*stride - pad
				sum := b
				for ic := 0; ic < in.C; ic++ {
					wOff := wBase + ic*k*k
					inOff := ic * in.H * in.W
					for ky := 0; ky < k; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= in.H {
							continue
						}
						rowOff := inOff + iy*in.W
						wRow := wOff + ky*k
						for kx := 0; kx < k; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= in.W {
								continue
							}
							sum += w[wRow+kx] * in.Data[rowOff+ix]
						}
					}
				}
				out.Data[(oc*oh+oy)*ow+ox] = sum
			}
		}
	}
	return out
}

func TestConv2DIdentity(t *testing.T) {
	in := New(1, 3, 3)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	// 1x1 kernel with weight 1 = identity.
	out := Conv2D(in, []float32{1}, nil, 1, 1, 1, 0)
	if !out.SameShape(in) {
		t.Fatalf("identity conv shape %v", out)
	}
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatal("identity conv changed values")
		}
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 1-channel 3x3 input, 3x3 averaging-like kernel of ones, no padding:
	// single output = sum of all inputs.
	in := New(1, 3, 3)
	var want float32
	for i := range in.Data {
		in.Data[i] = float32(i + 1)
		want += float32(i + 1)
	}
	w := make([]float32, 9)
	for i := range w {
		w[i] = 1
	}
	out := Conv2D(in, w, nil, 1, 3, 1, 0)
	if out.C != 1 || out.H != 1 || out.W != 1 {
		t.Fatalf("shape %v, want 1x1x1", out)
	}
	if out.Data[0] != want {
		t.Errorf("conv sum = %v, want %v", out.Data[0], want)
	}
}

func TestConv2DPaddingShape(t *testing.T) {
	in := New(3, 8, 8)
	w := make([]float32, 16*3*3*3)
	out := Conv2D(in, w, nil, 16, 3, 1, 1)
	if out.C != 16 || out.H != 8 || out.W != 8 {
		t.Fatalf("same-pad conv shape %v, want 16x8x8", out)
	}
	out2 := Conv2D(in, w, nil, 16, 3, 2, 1)
	if out2.H != 4 || out2.W != 4 {
		t.Fatalf("stride-2 conv shape %v, want 16x4x4", out2)
	}
}

func TestConv2DBias(t *testing.T) {
	in := New(1, 2, 2)
	w := []float32{0} // 1x1 zero kernel
	out := Conv2D(in, w, []float32{5}, 1, 1, 1, 0)
	for _, v := range out.Data {
		if v != 5 {
			t.Fatalf("bias not applied: %v", v)
		}
	}
}

func TestConv2DPaddingZeros(t *testing.T) {
	// All-ones input, 3x3 ones kernel, pad 1: corner output sees only 4
	// valid taps, center sees 9.
	in := New(1, 3, 3)
	in.Fill(1)
	w := make([]float32, 9)
	for i := range w {
		w[i] = 1
	}
	out := Conv2D(in, w, nil, 1, 3, 1, 1)
	if out.At(0, 0, 0) != 4 {
		t.Errorf("corner = %v, want 4", out.At(0, 0, 0))
	}
	if out.At(0, 1, 1) != 9 {
		t.Errorf("center = %v, want 9", out.At(0, 1, 1))
	}
}

func TestConv2DMultiChannel(t *testing.T) {
	in := New(2, 1, 1)
	in.Data[0], in.Data[1] = 3, 4
	// outC=1, k=1: weight per input channel.
	out := Conv2D(in, []float32{2, 10}, nil, 1, 1, 1, 0)
	if out.Data[0] != 3*2+4*10 {
		t.Errorf("multi-channel conv = %v, want 46", out.Data[0])
	}
}

func TestConv2DPanicsOnBadWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("short weights should panic")
		}
	}()
	Conv2D(New(1, 3, 3), []float32{1, 2}, nil, 1, 3, 1, 0)
}

func TestMaxPool(t *testing.T) {
	in := New(1, 4, 4)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	out := MaxPool2DInto(nil, in, 2, 2)
	if out.H != 2 || out.W != 2 {
		t.Fatalf("pool shape %v", out)
	}
	want := []float32{5, 7, 13, 15}
	for i, v := range want {
		if out.Data[i] != v {
			t.Errorf("pool[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
}

func TestMaxPoolNegativeValues(t *testing.T) {
	in := New(1, 2, 2)
	in.Data = []float32{-5, -3, -9, -7}
	out := MaxPool2DInto(nil, in, 2, 2)
	if out.Data[0] != -3 {
		t.Errorf("pool of negatives = %v, want -3", out.Data[0])
	}
}

// Pooling must treat non-finite values the way the GEMM kernels do: an
// all -Inf window is -Inf (not a finite sentinel), a NaN anywhere in the
// window poisons its output, and ordinary windows are unchanged bitwise.
func TestMaxPoolNonFinite(t *testing.T) {
	nan := float32(math.NaN())
	ninf := float32(math.Inf(-1))
	for _, tc := range []struct {
		name   string
		window [4]float32
		want   float32
	}{
		{"all -Inf", [4]float32{ninf, ninf, ninf, ninf}, ninf},
		{"NaN first", [4]float32{nan, 1, 2, 3}, nan},
		{"NaN middle", [4]float32{1, 9, nan, 3}, nan},
		{"NaN last", [4]float32{1, 2, 3, nan}, nan},
		{"NaN among -Inf", [4]float32{ninf, nan, ninf, ninf}, nan},
		{"-Inf then finite", [4]float32{ninf, -7, ninf, -9}, -7},
		{"+Inf wins", [4]float32{1, float32(math.Inf(1)), 3, 4}, float32(math.Inf(1))},
		{"ordinary", [4]float32{0.5, -2, 3.25, 1}, 3.25},
		{"very negative", [4]float32{-3.4e38, -3.402e38, -3.4e38, -3.401e38}, -3.4e38},
		{"signed zeros keep first", [4]float32{float32(math.Copysign(0, -1)), 0, 0, 0}, float32(math.Copysign(0, -1))},
	} {
		in := New(1, 2, 2)
		copy(in.Data, tc.window[:])
		got := MaxPool2DInto(nil, in, 2, 2).Data[0]
		if math.Float32bits(got) != math.Float32bits(tc.want) && !(got != got && tc.want != tc.want) {
			t.Errorf("%s: pool(%v) = %v, want %v", tc.name, tc.window, got, tc.want)
		}
	}
}

// The flat 2×2 pool must return the general loop's bits — NaN payloads and
// the first of two signed zeros included — on even and odd extents (an odd
// last row or column is dropped), into a reused destination holding stale
// values.
func TestMaxPool2x2MatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	nanA, nanB := math.Float32frombits(0x7fc0beef), math.Float32frombits(0xffc00001)
	draw := func() float32 {
		switch rng.Intn(8) {
		case 0:
			return nanA
		case 1:
			return nanB
		case 2:
			return specialFloat(rng)
		case 3:
			return float32(rng.Intn(3) - 1) // exact ties
		case 4:
			return float32(math.Copysign(0, -1))
		default:
			return float32(rng.NormFloat64())
		}
	}
	for trial := 0; trial < 400; trial++ {
		c, h, w := 1+rng.Intn(4), 2+rng.Intn(9), 2+rng.Intn(9)
		in := New(c, h, w)
		for i := range in.Data {
			in.Data[i] = draw()
		}
		want := New(c, h/2, w/2)
		maxPool(want, in, 2, 2)
		got := New(c, h/2, w/2)
		got.Fill(nanA)
		MaxPool2DInto(got, in, 2, 2)
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("trial %d %dx%dx%d: out[%d] = %#x, general loop %#x",
					trial, c, h, w, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
			}
		}
	}
}

// BenchmarkMaxPool times the 2×2 stride-2 pool on the output shapes of the
// first two TinyYOLO(64) convolutions and the first TinyTrackerTower(32)
// one.
func BenchmarkMaxPool(b *testing.B) {
	for _, sh := range [][3]int{{8, 64, 64}, {16, 32, 32}, {16, 16, 16}} {
		in := New(sh[0], sh[1], sh[2])
		rng := rand.New(rand.NewSource(3))
		for i := range in.Data {
			in.Data[i] = float32(max(0, rng.NormFloat64())) // ReLU-like: half zeros
		}
		dst := New(sh[0], sh[1]/2, sh[2]/2)
		b.Run(fmt.Sprintf("%dx%dx%d", sh[0], sh[1], sh[2]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MaxPool2DInto(dst, in, 2, 2)
			}
		})
	}
}

func TestFullyConnected(t *testing.T) {
	in := NewVec(3)
	in.Data = []float32{1, 2, 3}
	w := []float32{
		1, 0, 0,
		0, 1, 1,
	}
	out := FullyConnectedParInto(nil, in, w, []float32{10, 20}, 2, 1)
	if out.Data[0] != 11 || out.Data[1] != 25 {
		t.Errorf("fc = %v, want [11 25]", out.Data)
	}
}

func TestFullyConnectedFlattens(t *testing.T) {
	in := New(2, 2, 1) // 4 elements
	in.Data = []float32{1, 2, 3, 4}
	w := []float32{1, 1, 1, 1}
	out := FullyConnectedParInto(nil, in, w, nil, 1, 1)
	if out.Data[0] != 10 {
		t.Errorf("fc over CHW = %v, want 10", out.Data[0])
	}
}

func TestReLU(t *testing.T) {
	x := NewVec(3)
	x.Data = []float32{-1, 0, 2}
	ReLU(x)
	if x.Data[0] != 0 || x.Data[1] != 0 || x.Data[2] != 2 {
		t.Errorf("relu = %v", x.Data)
	}
}

func TestLeakyReLU(t *testing.T) {
	x := NewVec(2)
	x.Data = []float32{-10, 5}
	LeakyReLU(x, 0.1)
	if x.Data[0] != -1 || x.Data[1] != 5 {
		t.Errorf("leaky = %v", x.Data)
	}
}

func TestSigmoidRange(t *testing.T) {
	x := NewVec(3)
	x.Data = []float32{-100, 0, 100}
	Sigmoid(x)
	if x.Data[0] > 0.001 || math.Abs(float64(x.Data[1])-0.5) > 1e-5 || x.Data[2] < 0.999 {
		t.Errorf("sigmoid = %v", x.Data)
	}
}

func TestExp32Accuracy(t *testing.T) {
	for _, x := range []float32{-20, -5, -1, -0.1, 0, 0.1, 1, 5, 20} {
		got := float64(exp32(x))
		want := math.Exp(float64(x))
		rel := math.Abs(got-want) / want
		if rel > 1e-5 {
			t.Errorf("exp32(%v) = %v, want %v (rel err %v)", x, got, want, rel)
		}
	}
	if exp32(-100) != 0 {
		t.Error("exp32 underflow should clamp to 0")
	}
	if v := exp32(100); math.IsInf(float64(v), 1) {
		t.Error("exp32 overflow should clamp, not inf")
	}
}

// Property: conv with a delta kernel (center 1, pad same) reproduces input.
func TestConvDeltaProperty(t *testing.T) {
	f := func(vals [9]int16) bool {
		in := New(1, 3, 3)
		for i, v := range vals {
			in.Data[i] = float32(v)
		}
		w := make([]float32, 9)
		w[4] = 1 // center tap of 3x3 kernel
		out := Conv2D(in, w, nil, 1, 3, 1, 1)
		for i := range in.Data {
			if out.Data[i] != in.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkConv2D(b *testing.B) {
	in := New(16, 52, 52)
	w := make([]float32, 32*16*3*3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2D(in, w, nil, 32, 3, 1, 1)
	}
}

func BenchmarkFullyConnected(b *testing.B) {
	in := NewVec(4096)
	w := make([]float32, 1000*4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FullyConnectedParInto(nil, in, w, nil, 1000, 1)
	}
}

// Property: the conv kernels compute exactly what the direct
// convolution computes, across random shapes, strides and padding.
func TestIm2ColMatchesDirectProperty(t *testing.T) {
	f := func(seed uint32, kSel, sSel, pSel, cSel uint8) bool {
		k := int(kSel)%3*2 + 1 // 1, 3, 5
		stride := int(sSel)%2 + 1
		pad := int(pSel) % 2
		inC := int(cSel)%3 + 1
		outC := int(cSel)%4 + 1
		h := 6 + int(seed%5) // int(seed) is negative above 2³¹ on 32-bit int
		in := New(inC, h, h)
		state := seed | 1
		next := func() float32 {
			state = state*1664525 + 1013904223
			return float32(int32(state>>16)%100) / 25
		}
		for i := range in.Data {
			in.Data[i] = next()
		}
		w := make([]float32, outC*inC*k*k)
		for i := range w {
			w[i] = next()
		}
		bias := make([]float32, outC)
		for i := range bias {
			bias[i] = next()
		}
		a := Conv2D(in, w, bias, outC, k, stride, pad)
		b := Conv2DIm2ColParInto(nil, in, w, bias, outC, k, stride, pad, 1, nil)
		if !a.SameShape(b) {
			return false
		}
		for i := range a.Data {
			d := a.Data[i] - b.Data[i]
			if d > 1e-3 || d < -1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIm2ColPanicsOnBadWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("short weights should panic")
		}
	}()
	Conv2DIm2ColParInto(nil, New(1, 4, 4), []float32{1}, nil, 1, 3, 1, 0, 1, nil)
}

// A negative pad has no padded copy to read from: the conv must reject it
// as it rejects a bad k or stride.
func TestConvRejectsNegativePad(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "pad=-1") {
			t.Errorf("pad -1 recovered %v, want an invalid-conv panic", r)
		}
	}()
	Conv2DIm2ColParInto(nil, New(1, 6, 6), make([]float32, 9), nil, 1, 3, 1, -1, 1, nil)
}

func BenchmarkConv2DIm2Col(b *testing.B) {
	in := New(16, 52, 52)
	w := make([]float32, 32*16*3*3)
	for i := range w {
		w[i] = 0.01
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2DIm2ColParInto(nil, in, w, nil, 32, 3, 1, 1, 1, nil)
	}
}

// Each must call fn once per unit, on a worker index below
// min(n, workers), and never run two calls of one index at once: that is
// what lets a caller hand each index its own scratch. n = 0 is a no-op and
// workers > n clamps to one unit per worker.
func TestFanOutCoversRangeOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 1}, {1, 8}, {5, 2}, {7, 7}, {100, 3}, {8, 64},
	} {
		calls := make([]int, tc.n)
		var busy [64]atomic.Bool
		var bad atomic.Int64
		Each(tc.n, tc.workers, func(w, i int) {
			if w < 0 || w >= min(tc.n, tc.workers) || !busy[w].CompareAndSwap(false, true) {
				bad.Add(1)
				return
			}
			calls[i]++
			busy[w].Store(false)
		})
		if bad.Load() != 0 {
			t.Fatalf("n=%d workers=%d: %d Each calls on an out-of-range or busy worker index", tc.n, tc.workers, bad.Load())
		}
		for i, c := range calls {
			if c != 1 {
				t.Fatalf("n=%d workers=%d: Each called unit %d %d times", tc.n, tc.workers, i, c)
			}
		}
	}
}

// Descriptor reuse across concurrent Each calls is the fan-out's one
// shared-state hazard (a fleet's vehicles run TRA's and LOC's fan-outs at
// once): 8 goroutines each fan out at 1, 2 or 4 workers over three inputs,
// every unit a conv and an FC pass on its worker's own arena, and every
// result must be bitwise-equal to its serial run. Run under -race this is
// the descriptor-sharing gate.
func TestFanOutConcurrentCallers(t *testing.T) {
	in0, cw, cb, outC, k := randConvCase(21)
	in1, _, _, _, _ := randConvCase(22)
	in2, _, _, _, _ := randConvCase(23)
	ins := []*T{in0, in1, in2}
	const outN = 256
	rng := rand.New(rand.NewSource(22))
	fw := make([]float32, outN*ins[0].Len())
	for i := range fw {
		fw[i] = float32(rng.NormFloat64())
	}
	convWant := make([]*T, len(ins))
	fcWant := make([]*T, len(ins))
	for i, in := range ins {
		convWant[i] = Conv2DIm2ColParInto(nil, in, cw, cb, outC, k, 1, 1, 1, nil)
		fcWant[i] = FullyConnectedParInto(nil, in, fw, nil, outN, 1)
	}

	equal := func(got, want *T) bool {
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			const slots = 4
			var scratch [slots]Scratch
			var dsts, fdsts [slots]*T
			for w := range dsts {
				dsts[w], fdsts[w] = New(outC, in0.H, in0.W), NewVec(outN)
			}
			for r := 0; r < 6; r++ {
				workers := []int{1, 2, 4}[(g+r)%3] // goroutines start out of phase
				Each(len(ins), workers, func(w, i int) {
					if !equal(Conv2DIm2ColParInto(dsts[w], ins[i], cw, cb, outC, k, 1, 1, 1, &scratch[w]), convWant[i]) {
						t.Errorf("goroutine %d workers %d: conv of input %d diverged from serial", g, workers, i)
					}
					if !equal(FullyConnectedParInto(fdsts[w], ins[i], fw, nil, outN, 1), fcWant[i]) {
						t.Errorf("goroutine %d workers %d: fc of input %d diverged from serial", g, workers, i)
					}
				})
			}
		}(g)
	}
	wg.Wait()
}
