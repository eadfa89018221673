package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether a and b are the same float32 bit pattern, with
// any NaN matching any NaN (as TestConvNonFinitePropagation counts them).
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// specialFloat draws from mixed magnitudes plus the values where SIMD and
// scalar paths could part ways: ±0, ±Inf, NaN, subnormals and the extremes.
func specialFloat(rng *rand.Rand) float32 {
	switch rng.Intn(12) {
	case 0:
		return float32(math.Copysign(0, -1))
	case 1:
		return 0
	case 2:
		return float32(math.Inf(1 - 2*rng.Intn(2)))
	case 3:
		return float32(math.NaN())
	case 4:
		return math.Float32frombits(uint32(1 + rng.Intn(1<<23))) // subnormal
	case 5:
		return -math.Float32frombits(uint32(1 + rng.Intn(1<<23)))
	case 6:
		return math.MaxFloat32 * float32(1-2*rng.Intn(2))
	case 7:
		return float32(rng.NormFloat64() * 1e30)
	case 8:
		return float32(rng.NormFloat64() * 1e-30)
	default:
		return float32(rng.NormFloat64())
	}
}

// axpy4 (SSE on amd64) must equal the Go loop bit for bit at every length
// across the 4-wide body and the scalar tail, at every slice alignment, on
// ordinary and non-finite values alike.
func TestAxpy4MatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 40; trial++ {
			special := trial%2 == 1
			draw := func() float32 {
				if special {
					return specialFloat(rng)
				}
				return float32(rng.NormFloat64())
			}
			// Each operand starts 0–3 elements into its backing array, so
			// the 16-byte loads see every alignment.
			slice := func() []float32 {
				off := rng.Intn(4)
				s := make([]float32, off+n)
				for i := range s {
					s[i] = draw()
				}
				return s[off:]
			}
			acc, s0, s1, s2, s3 := slice(), slice(), slice(), slice(), slice()
			w0, w1, w2, w3 := draw(), draw(), draw(), draw()
			want := append([]float32(nil), acc...)
			axpy4Go(want, s0, s1, s2, s3, w0, w1, w2, w3)
			axpy4(acc, s0, s1, s2, s3, w0, w1, w2, w3)
			for c := range want {
				if !sameBits(acc[c], want[c]) {
					t.Fatalf("n=%d trial %d: acc[%d] = %v (%#x), Go loop %v (%#x)",
						n, trial, c, acc[c], math.Float32bits(acc[c]), want[c], math.Float32bits(want[c]))
				}
			}
		}
	}
}

// BenchmarkConvShapes sizes parMinMACs: the seven distinct conv shapes of
// TinyYOLO(64) and TinyTrackerTower(32) at one range and at two ranges
// forced past the floor (run with -cpu 2). Below the break-even MAC count
// the second range loses to its fan-out cost. DESIGN.md §9 records a run.
func BenchmarkConvShapes(b *testing.B) {
	for _, sh := range []struct {
		name                          string
		inC, hw, outC, k, stride, pad int
	}{
		{"yolo1", 1, 64, 8, 3, 1, 1},
		{"yolo2", 8, 32, 16, 3, 1, 1},
		{"yolo3", 16, 16, 32, 3, 1, 1},
		{"yolo4+tower3", 32, 8, 32, 3, 1, 1},
		{"yolo5", 32, 4, 14, 1, 1, 0}, // 1×1 head, dnn.DetCellDepth channels
		{"tower1", 1, 32, 16, 5, 2, 2},
		{"tower2", 16, 8, 32, 3, 1, 1},
	} {
		rng := rand.New(rand.NewSource(5))
		in := New(sh.inC, sh.hw, sh.hw)
		for i := range in.Data {
			in.Data[i] = float32(rng.NormFloat64())
		}
		w := make([]float32, sh.outC*sh.inC*sh.k*sh.k)
		for i := range w {
			w[i] = float32(rng.NormFloat64())
		}
		oh, ow := convShape(in, len(w), sh.outC, sh.k, sh.stride, sh.pad)
		dst, s := New(sh.outC, oh, ow), &Scratch{}
		patchRows, cols := sh.inC*sh.k*sh.k, oh*ow
		macs := sh.outC * patchRows * cols
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/macs=%d/w=%d", sh.name, macs, workers), func(b *testing.B) {
				// job.conv minus the floor, so both widths really run.
				j := jobs.Get().(*job)
				defer j.release()
				j.dst1[0], j.in1[0] = dst, in
				j.dsts, j.ins, j.w = j.dst1[:], j.in1[:], w
				j.patches = s.Patches(patchRows * cols)
				j.k, j.stride, j.pad, j.oh, j.ow = sh.k, sh.stride, sh.pad, oh, ow
				j.patchRows, j.cols = patchRows, cols
				for i := 0; i < b.N; i++ {
					j.fanOut(opLower, patchRows, workers)
					j.fanOut(opGemm, sh.outC, workers)
				}
			})
		}
	}
}

// lowerRangeRef is the per-element im2col loop lowerRange replaced: the
// differential reference its patch matrix is held to bit for bit.
func lowerRangeRef(patches []float32, ins []*T, k, stride, pad, oh, ow, lo, hi int) {
	patchRows := ins[0].C * k * k
	cols := oh * ow
	for u := lo; u < hi; u++ {
		in, row := ins[u/patchRows], u%patchRows
		ic := row / (k * k)
		rem := row % (k * k)
		ky, kx := rem/k, rem%k
		chanOff := ic * in.H * in.W
		dst := patches[u*cols : (u+1)*cols]
		col := 0
		for oy := 0; oy < oh; oy++ {
			iy := oy*stride - pad + ky
			if iy < 0 || iy >= in.H {
				for ox := 0; ox < ow; ox++ {
					dst[col] = 0
					col++
				}
				continue
			}
			rowOff := chanOff + iy*in.W
			for ox := 0; ox < ow; ox++ {
				ix := ox*stride - pad + kx
				if ix >= 0 && ix < in.W {
					dst[col] = in.Data[rowOff+ix]
				} else {
					dst[col] = 0
				}
				col++
			}
		}
	}
}

// lowerRange must write exactly the reference's patch matrix — copied
// values bit for bit (−0 and NaN payloads included), +0 for every padding
// tap, every element of a NaN-poisoned buffer overwritten — over kernel
// sizes, strides and paddings up to and past k, where whole output rows
// and columns are padding, and over partial unit ranges of a batch.
func TestLowerRangeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	poison := math.Float32frombits(0x7fc0dead)
	cases := 0
	for _, k := range []int{1, 3, 5, 11} {
		for _, stride := range []int{1, 2, 4} {
			for pad := 0; pad <= k; pad++ {
				for _, hw := range [][2]int{{1, 1}, {2, 7}, {5, 5}, {12, 9}, {23, 17}} {
					h, w := hw[0], hw[1]
					if h+2*pad < k || w+2*pad < k {
						continue // no output: convShape rejects the shape
					}
					name := fmt.Sprintf("k=%d/stride=%d/pad=%d/%dx%d", k, stride, pad, h, w)
					ins := []*T{New(2, h, w), New(2, h, w)}
					for _, in := range ins {
						for i := range in.Data {
							in.Data[i] = specialFloat(rng)
						}
					}
					oh, ow := convShape(ins[0], 2*2*k*k, 2, k, stride, pad)
					n := len(ins) * 2 * k * k
					want := make([]float32, n*oh*ow)
					got := make([]float32, len(want))
					for i := range got {
						got[i] = poison
					}
					lowerRangeRef(want, ins, k, stride, pad, oh, ow, 0, n)
					// Two calls over a split range, as a fan-out would make.
					mid := rng.Intn(n + 1)
					lowerRange(got, ins, k, stride, pad, oh, ow, 0, mid)
					lowerRange(got, ins, k, stride, pad, oh, ow, mid, n)
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s: patches[%d] = %#x, reference %#x",
								name, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
					cases++
				}
			}
		}
	}
	if cases < 100 {
		t.Fatalf("only %d shapes exercised", cases)
	}
}
