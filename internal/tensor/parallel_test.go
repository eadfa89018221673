package tensor

import (
	"encoding/binary"
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

// gemmRangeRef is the GEMM loop the register tile replaced, one output
// channel per unit over axpy4 steps: the reference gemmRange is held to
// bit for bit (any NaN matching any NaN).
func gemmRangeRef(dsts []*T, patches, w, bias []float32, patchRows, cols, lo, hi int) {
	b := len(dsts)
	block := patchRows * cols
	for u := lo; u < hi; u++ {
		oc, i := u/b, u%b
		acc := dsts[i].Data[oc*cols : (oc+1)*cols]
		p := patches[i*block : (i+1)*block]
		var bv float32
		if bias != nil {
			bv = bias[oc]
		}
		for c := range acc {
			acc[c] = bv
		}
		wRow := w[oc*patchRows : (oc+1)*patchRows]
		r := 0
		for ; r+4 <= patchRows; r += 4 {
			s := p[r*cols : (r+4)*cols]
			axpy4(acc, s[:cols], s[cols:2*cols], s[2*cols:3*cols], s[3*cols:],
				wRow[r], wRow[r+1], wRow[r+2], wRow[r+3])
		}
		for ; r < patchRows; r++ {
			wv := wRow[r]
			src := p[r*cols : (r+1)*cols]
			for c, pv := range src {
				acc[c] += wv * pv
			}
		}
	}
}

// gemm4x8 (SSE on amd64) must equal its Go loop bit for bit at every depth
// across the four-row step and the leftover rows, over one to three tiles,
// with output and patch rows wider than the tiles, at every slice
// alignment, and on ordinary and non-finite values alike. The routine must
// write nothing but the tiles.
func TestGemm4x8MatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for depth := 0; depth <= 13; depth++ {
		for n := 1; n <= 3; n++ {
			for trial := 0; trial < 24; trial++ {
				special := trial%2 == 1
				draw := func() float32 {
					if special {
						return specialFloat(rng)
					}
					return float32(rng.NormFloat64())
				}
				cols := 8*n + rng.Intn(9)
				// Each slice starts 0–3 elements into its backing array, so
				// the 16-byte loads see every alignment.
				slice := func(size int) []float32 {
					off := rng.Intn(4)
					s := make([]float32, off+size)
					for i := range s {
						s[i] = draw()
					}
					return s[off:]
				}
				p := slice(max(depth, 1) * cols)
				w := slice(4 * depth)
				var bias [4]float32
				for i := range bias {
					bias[i] = draw()
				}
				got := slice(4 * cols)
				want := append([]float32(nil), got...)
				gemm4x8Go(want, p, w, &bias, depth, cols, n)
				gemm4x8(got, p, w, &bias, depth, cols, n)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("depth=%d n=%d cols=%d trial %d: out[%d] = %v (%#x), Go loop %v (%#x)",
							depth, n, cols, trial, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// gemmRange must write exactly the replaced loop's outputs over output
// channel counts that fill and leave partial blocks, patch depths across
// the four-row step, column counts below, at and past the tile width,
// batches of one to three, with and without bias, and a unit range split
// as a fan-out would split it.
func TestGemmRangeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 600; trial++ {
		b, outC := 1+rng.Intn(3), 1+rng.Intn(10)
		patchRows, cols := 1+rng.Intn(14), 1+rng.Intn(27)
		special := trial%3 == 2
		draw := func() float32 {
			if special {
				return specialFloat(rng)
			}
			return float32(rng.NormFloat64())
		}
		fill := func(n int) []float32 {
			s := make([]float32, n)
			for i := range s {
				s[i] = draw()
			}
			return s
		}
		patches, w := fill(b*patchRows*cols), fill(outC*patchRows)
		var bias []float32
		if trial%2 == 0 {
			bias = fill(outC)
		}
		got, want := make([]*T, b), make([]*T, b)
		for i := range got {
			got[i], want[i] = New(outC, 1, cols), New(outC, 1, cols)
		}
		gemmRangeRef(want, patches, w, bias, patchRows, cols, 0, b*outC)
		units := gemmUnits(b, outC)
		mid := rng.Intn(units + 1)
		gemmRange(got, patches, w, bias, outC, patchRows, cols, 0, mid)
		gemmRange(got, patches, w, bias, outC, patchRows, cols, mid, units)
		for i := range want {
			for e := range want[i].Data {
				if !sameBits(got[i].Data[e], want[i].Data[e]) {
					t.Fatalf("trial %d (b=%d outC=%d rows=%d cols=%d): sample %d out[%d] = %v, reference %v",
						trial, b, outC, patchRows, cols, i, e, got[i].Data[e], want[i].Data[e])
				}
			}
		}
	}
}

// FuzzGemmRange holds gemmRange to gemmRangeRef on fuzzer-chosen shapes and
// bit patterns: every operand element is four input bytes read as a
// float32, so NaNs, infinities, signed zeros and subnormals all occur.
func FuzzGemmRange(f *testing.F) {
	f.Add(uint8(0), uint8(7), uint8(8), uint8(16), []byte{0, 0, 128, 63, 0, 0, 192, 127, 1, 0, 0, 128})
	f.Add(uint8(2), uint8(13), uint8(26), uint8(35), []byte("register tile"))
	f.Fuzz(func(t *testing.T, bSel, outCSel, rowsSel, colsSel uint8, data []byte) {
		b, outC := 1+int(bSel)%3, 1+int(outCSel)%12
		patchRows, cols := 1+int(rowsSel)%30, 1+int(colsSel)%40
		next := 0
		word := func() float32 {
			next++
			if len(data) < 4 {
				return float32(next%7) - 3
			}
			o := 4 * next % (len(data) - 3)
			return math.Float32frombits(binary.LittleEndian.Uint32(data[o:]))
		}
		fill := func(n int) []float32 {
			s := make([]float32, n)
			for i := range s {
				s[i] = word()
			}
			return s
		}
		patches, w, bias := fill(b*patchRows*cols), fill(outC*patchRows), fill(outC)
		if bSel&0x80 != 0 {
			bias = nil
		}
		got, want := make([]*T, b), make([]*T, b)
		for i := range got {
			got[i], want[i] = New(outC, 1, cols), New(outC, 1, cols)
		}
		gemmRangeRef(want, patches, w, bias, patchRows, cols, 0, b*outC)
		gemmRange(got, patches, w, bias, outC, patchRows, cols, 0, gemmUnits(b, outC))
		for i := range want {
			for e := range want[i].Data {
				if !sameBits(got[i].Data[e], want[i].Data[e]) {
					t.Fatalf("b=%d outC=%d rows=%d cols=%d: sample %d out[%d] = %#x, reference %#x", b, outC, patchRows, cols,
						i, e, math.Float32bits(got[i].Data[e]), math.Float32bits(want[i].Data[e]))
				}
			}
		}
	})
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
				j.outC, j.patchRows, j.cols = sh.outC, patchRows, cols
				for i := 0; i < b.N; i++ {
					j.fanOut(opLower, patchRows, workers)
					j.fanOut(opGemm, gemmUnits(1, sh.outC), workers)
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
