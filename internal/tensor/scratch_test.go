package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"adsim/internal/testutil"
)

func randConvCase(seed int64) (in *T, w, bias []float32, outC, k int) {
	rng := rand.New(rand.NewSource(seed))
	in = New(3, 40, 40)
	for i := range in.Data {
		in.Data[i] = float32(rng.NormFloat64())
	}
	outC, k = 32, 3 // 32·27·1600 MACs: above parMinMACs, so workers > 1 fan out
	w = make([]float32, outC*in.C*k*k)
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	bias = make([]float32, outC)
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	return
}

// The Into kernels are the allocation-free spine of the steady-state hot
// path; writing into a caller's destination with a reused arena must be
// bitwise-identical to letting them allocate (nil dst, nil scratch).
func TestIntoVariantsBitwiseEqualAllocating(t *testing.T) {
	in, w, bias, outC, k := randConvCase(3)

	want := Conv2DIm2ColParInto(nil, in, w, bias, outC, k, 1, 1, 2, nil)
	s := &Scratch{}
	dst := New(outC, in.H, in.W)
	got := Conv2DIm2ColParInto(dst, in, w, bias, outC, k, 1, 1, 2, s)
	if got != dst {
		t.Fatal("Conv2DIm2ColParInto did not return its destination")
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("conv into: out[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}

	pw := MaxPool2DInto(nil, want, 2, 2)
	pdst := New(pw.C, pw.H, pw.W)
	pgot := MaxPool2DInto(pdst, want, 2, 2)
	for i := range pw.Data {
		if pgot.Data[i] != pw.Data[i] {
			t.Fatalf("pool into: out[%d] = %v, want %v", i, pgot.Data[i], pw.Data[i])
		}
	}

	fcW := make([]float32, 16*want.Len())
	rng := rand.New(rand.NewSource(4))
	for i := range fcW {
		fcW[i] = float32(rng.NormFloat64())
	}
	fw := FullyConnectedParInto(nil, want, fcW, nil, 16, 2)
	fdst := New(16, 1, 1)
	fgot := FullyConnectedParInto(fdst, want, fcW, nil, 16, 2)
	for i := range fw.Data {
		if fgot.Data[i] != fw.Data[i] {
			t.Fatalf("fc into: out[%d] = %v, want %v", i, fgot.Data[i], fw.Data[i])
		}
	}
}

// Satellite: the GEMM used to skip zero weights, which silently converted
// 0·NaN (= NaN) into 0 and hid corrupt activations. Zero weights must
// propagate non-finite inputs exactly like the direct convolution.
func TestConvNonFinitePropagation(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	in := New(1, 6, 6)
	for i := range in.Data {
		in.Data[i] = 1
	}
	in.Data[14] = nan // somewhere mid-tensor
	in.Data[27] = inf

	// Weight row containing exact zeros: 0·NaN must still poison the sums.
	w := []float32{0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1}
	outC, k := 2, 3

	want := Conv2D(in, w, nil, outC, k, 1, 1)
	got := Conv2DIm2ColParInto(nil, in, w, nil, outC, k, 1, 1, 2, nil)
	s := &Scratch{}
	into := Conv2DIm2ColParInto(New(outC, 6, 6), in, w, nil, outC, k, 1, 1, 2, s)

	sawNaN := false
	for i := range want.Data {
		wNaN := math.IsNaN(float64(want.Data[i]))
		if wNaN {
			sawNaN = true
		}
		for name, out := range map[string]*T{"par": got, "into": into} {
			gNaN := math.IsNaN(float64(out.Data[i]))
			if wNaN != gNaN {
				t.Fatalf("%s out[%d] = %v, direct = %v: NaN propagation differs", name, i, out.Data[i], want.Data[i])
			}
			if !wNaN && out.Data[i] != want.Data[i] {
				t.Fatalf("%s out[%d] = %v, want %v", name, i, out.Data[i], want.Data[i])
			}
		}
	}
	if !sawNaN {
		t.Fatal("test case never produced NaN outputs — not exercising propagation")
	}
}

func TestFCNonFinitePropagation(t *testing.T) {
	nan := float32(math.NaN())
	in := New(8, 1, 1)
	for i := range in.Data {
		in.Data[i] = 1
	}
	in.Data[3] = nan
	// Row 0 hits the NaN with weight 0, row 1 avoids index 3 entirely.
	w := make([]float32, 2*8)
	w[0+3] = 0
	w[0+5] = 2
	for i := 8; i < 16; i++ {
		w[i] = 1
	}
	w[8+3] = 0

	want := FullyConnectedParInto(nil, in, w, nil, 2, 1)
	got := FullyConnectedParInto(nil, in, w, nil, 2, 2)
	for i := range want.Data {
		wNaN := math.IsNaN(float64(want.Data[i]))
		gNaN := math.IsNaN(float64(got.Data[i]))
		if wNaN != gNaN {
			t.Fatalf("out[%d] = %v, direct = %v: NaN propagation differs", i, got.Data[i], want.Data[i])
		}
	}
}

func TestScratchBuffersStableAndDistinct(t *testing.T) {
	s := &Scratch{}
	a := s.Buf(0, 2, 3, 4)
	b := s.Buf(1, 2, 3, 4)
	if a == b || &a.Data[0] == &b.Data[0] {
		t.Fatal("distinct slots aliased")
	}
	a.Data[0] = 42
	// Re-requesting a slot at smaller-or-equal size keeps the same backing.
	a2 := s.Buf(0, 1, 2, 3)
	if &a2.Data[0] != &a.Data[0] {
		t.Fatal("slot re-request moved the backing array")
	}
	// Growing may reallocate but must keep the tensor header stable.
	a3 := s.Buf(0, 8, 8, 8)
	if a3 != a {
		t.Fatal("slot grow returned a different tensor header")
	}
	if a3.C != 8 || a3.H != 8 || a3.W != 8 {
		t.Fatalf("slot shape %dx%dx%d after grow", a3.C, a3.H, a3.W)
	}
}

// Distinct scratch arenas must be safely usable from concurrent goroutines
// (each pipeline worker owns one); run under -race this is the aliasing
// gate for the whole arena design.
func TestScratchConcurrentDistinctArenas(t *testing.T) {
	in, w, bias, outC, k := randConvCase(5)
	want := Conv2DIm2ColParInto(nil, in, w, bias, outC, k, 1, 1, 1, nil)

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &Scratch{}
			dst := New(outC, in.H, in.W)
			for iter := 0; iter < 20; iter++ {
				got := Conv2DIm2ColParInto(dst, in, w, bias, outC, k, 1, 1, 1, s)
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						errs <- "conv diverged across goroutines"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// allocGate asserts that warm calls of kernel allocate nothing, as a table
// over 1, 2 and 4 workers: the serial range, the fan-out on a 2-CPU host
// and more ranges than testing.AllocsPerRun's single P can run at once.
// macs is the call's multiply count and must clear parMinMACs, or the
// kernel would run one range at every worker count and gate nothing. Under
// -race the calls still run for coverage but the count is skipped: the
// detector makes sync.Pool drop descriptors on purpose.
func allocGate(t *testing.T, macs int, kernel func(workers int)) {
	t.Helper()
	if macs < parMinMACs {
		t.Fatalf("case has %d MACs, below the %d fan-out floor", macs, parMinMACs)
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			kernel(workers) // warm the arena and the descriptor pool
			if testutil.RaceEnabled {
				t.Skip("AllocsPerRun is unreliable under -race; make alloc-gate runs this uninstrumented")
			}
			if allocs := testing.AllocsPerRun(10, func() { kernel(workers) }); allocs != 0 {
				t.Errorf("warm call allocates %.1f/op, want 0", allocs)
			}
		})
	}
}

// Alloc gates (run by `make alloc-gate`, without -race): the warm hot path
// must not allocate at all, whether a kernel runs one range or fans out.
func TestAllocConvInto(t *testing.T) {
	in, w, bias, outC, k := randConvCase(6)
	s := &Scratch{}
	dst := New(outC, in.H, in.W)
	allocGate(t, outC*in.C*k*k*in.H*in.W, func(workers int) {
		Conv2DIm2ColParInto(dst, in, w, bias, outC, k, 1, 1, workers, s)
	})
}

func TestAllocFCAndPoolInto(t *testing.T) {
	in, _, _, _, _ := randConvCase(8)
	const outN = 256
	fcW := make([]float32, outN*in.Len())
	for i := range fcW {
		fcW[i] = float32(i%7) - 3
	}
	fdst := New(outN, 1, 1)
	pdst := New(in.C, in.H/2, in.W/2)
	allocGate(t, outN*in.Len(), func(workers int) {
		FullyConnectedParInto(fdst, in, fcW, nil, outN, workers)
		MaxPool2DInto(pdst, in, 2, 2)
	})
}
