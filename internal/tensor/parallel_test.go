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
// channel of dst at a time over axpy4 steps: the reference gemmRange is
// held to bit for bit (any NaN matching any NaN).
func gemmRangeRef(dst *T, p, w, bias []float32, patchRows, cols int) {
	for oc := range dst.C {
		acc := dst.Data[oc*cols : (oc+1)*cols]
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

// convIm2ColRef is the convolution as the im2col kernels computed it: the
// input lowered into an (inC·k²) × (oh·ow) patch matrix by lowerRangeRef,
// then multiplied by gemmRangeRef. Conv2DIm2ColParInto is held to it bit
// for bit (any NaN matching any NaN).
func convIm2ColRef(dst, in *T, w, bias []float32, outC, k, stride, pad int) {
	oh, ow := convShape(in, len(w), outC, k, stride, pad)
	intoShape(dst, outC, oh, ow)
	patchRows, cols := in.C*k*k, oh*ow
	patches := make([]float32, patchRows*cols)
	lowerRangeRef(patches, in, k, stride, pad, oh, ow)
	gemmRangeRef(dst, patches, w, bias, patchRows, cols)
}

// gemm4x8 (SSE on amd64) must equal its Go loop bit for bit at every depth
// across the four-row step and the leftover rows, over one to three tiles,
// with output rows wider than the tiles, patch rows at arbitrary (so
// unaligned, overlapping and repeated) offsets into the input, every slice
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
				cols := 8*n + rng.Intn(9)
				in := slice(8*n + rng.Intn(40))
				off := make([]int32, depth)
				for r := range off {
					off[r] = int32(rng.Intn(len(in) - 8*n + 1))
				}
				w := slice(4 * depth)
				var bias [4]float32
				for i := range bias {
					bias[i] = draw()
				}
				got := slice(4 * cols)
				want := append([]float32(nil), got...)
				gemm4x8Go(want, in, off, w, &bias, depth, cols, n)
				gemm4x8(got, in, off, w, &bias, depth, cols, n)
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

// patchTable is the offset table that makes gemmRange read a plain patch
// matrix with cols columns: row r starts at r·cols. It is the table of a
// 1×1 conv over patchRows channels of a 1 × cols map.
func patchTable(patchRows, cols int) []int32 {
	off := make([]int32, patchRows)
	for r := range off {
		off[r] = int32(r * cols)
	}
	return off
}

// gemmRange, given a patch matrix as its input (a 1×1 conv's table), must
// write exactly the replaced loop's outputs over output channel counts
// that fill and leave partial blocks, patch depths across the four-row
// step, column counts below, at and past the tile width, with and without
// bias, and a channel-block range split as a fan-out would split it. The
// slack past the matrix is NaN, which an edge tile's dropped lanes may read
// and no output may show.
func TestGemmRangeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 600; trial++ {
		outC := 1 + rng.Intn(10)
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
		patches, w := fill(patchRows*cols), fill(outC*patchRows)
		var bias []float32
		if trial%2 == 0 {
			bias = fill(outC)
		}
		got, want := New(outC, 1, cols), New(outC, 1, cols)
		gemmRangeRef(want, patches, w, bias, patchRows, cols)
		for range tileSlack {
			patches = append(patches, float32(math.NaN()))
		}
		off := patchTable(patchRows, cols)
		blocks := (outC + 3) / 4
		mid := rng.Intn(blocks + 1)
		gemmRange(got.Data, patches, off, w, bias, outC, 1, cols, cols, 0, mid)
		gemmRange(got.Data, patches, off, w, bias, outC, 1, cols, cols, mid, blocks)
		for e := range want.Data {
			if !sameBits(got.Data[e], want.Data[e]) {
				t.Fatalf("trial %d (outC=%d rows=%d cols=%d): out[%d] = %v, reference %v",
					trial, outC, patchRows, cols, e, got.Data[e], want.Data[e])
			}
		}
	}
}

// convCase is one convolution of the differential tests: an input,
// weights and an optional bias drawn from draw.
type convCase struct {
	in                   *T
	w, bias              []float32
	outC, k, stride, pad int
}

func newConvCase(inC, h, w, outC, k, stride, pad int, withBias bool, draw func() float32) convCase {
	fill := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = draw()
		}
		return s
	}
	c := convCase{in: New(inC, h, w), outC: outC, k: k, stride: stride, pad: pad}
	copy(c.in.Data, fill(len(c.in.Data)))
	c.w = fill(outC * inC * k * k)
	if withBias {
		c.bias = fill(outC)
	}
	return c
}

// check runs c through Conv2DIm2ColParInto at the given worker count and
// through the lowering plus two gemmRange calls over a channel-block range
// split at split (clamped), each into a NaN-poisoned output and on the
// shared arena s, and fails unless both match convIm2ColRef bit for bit.
func (c convCase) check(t *testing.T, name string, workers, split int, s *Scratch) {
	t.Helper()
	oh, ow := convShape(c.in, len(c.w), c.outC, c.k, c.stride, c.pad)
	out := func() *T {
		d := New(c.outC, oh, ow)
		d.Fill(math.Float32frombits(0x7fc0dead))
		return d
	}
	want, got, split2 := out(), out(), out()
	convIm2ColRef(want, c.in, c.w, c.bias, c.outC, c.k, c.stride, c.pad)
	Conv2DIm2ColParInto(got, c.in, c.w, c.bias, c.outC, c.k, c.stride, c.pad, workers, s)

	j := getJob()
	j.lower(split2, c.in, c.w, c.bias, c.outC, c.k, c.stride, c.pad, oh, ow, s)
	blocks := (c.outC + 3) / 4
	mid := min(split, blocks)
	gemmRange(split2.Data, j.padded, j.off, j.w, j.bias, j.outC, j.rows, j.width, j.pitch, 0, mid)
	gemmRange(split2.Data, j.padded, j.off, j.w, j.bias, j.outC, j.rows, j.width, j.pitch, mid, blocks)
	j.release()

	for e := range want.Data {
		for kind, out := range map[string]*T{"conv": got, "split": split2} {
			if !sameBits(out.Data[e], want.Data[e]) {
				t.Fatalf("%s %s: out[%d] = %v (%#x), im2col %v (%#x)", name, kind, e,
					out.Data[e], math.Float32bits(out.Data[e]), want.Data[e], math.Float32bits(want.Data[e]))
			}
		}
	}
}

// The padded, phase-split input read through the offset table must give
// exactly the im2col kernels' outputs for kernel sizes 1, 3 and 5, strides
// 1–3 and pads 0–2, output widths with every remainder mod 8 (so tiles,
// edge columns and rows merged end to end all occur), partial channel
// blocks, bias or none, a channel-block range split in two, at one to
// three workers, through one arena reused across shapes, and on
// ordinary values and on ±0, ±Inf, NaN and subnormals.
func TestConvMatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	s := &Scratch{}
	var rems [8]int
	cases := 0
	for _, k := range []int{1, 3, 5} {
		for stride := 1; stride <= 3; stride++ {
			for pad := 0; pad <= 2; pad++ {
				for rem := 0; rem < 8; rem++ {
					special := cases%2 == 1
					draw := func() float32 {
						if special {
							return specialFloat(rng)
						}
						return float32(rng.NormFloat64())
					}
					// Input extents for an output of oh × (8m + rem), plus
					// up to stride−1 columns and rows no output reads.
					oh, ow := 1+rng.Intn(4), 8*rng.Intn(3)+rem
					h := max(1, (oh-1)*stride+k-2*pad+rng.Intn(stride))
					w := max(1, (ow-1)*stride+k-2*pad+rng.Intn(stride))
					if h+2*pad < k || w+2*pad < k {
						continue
					}
					c := newConvCase(1+rng.Intn(4), h, w, 1+rng.Intn(9), k, stride, pad, cases%4 < 2, draw)
					_, ow = convShape(c.in, len(c.w), c.outC, k, stride, pad)
					rems[ow%8]++
					name := fmt.Sprintf("k=%d/stride=%d/pad=%d/%dx%d/outC=%d", k, stride, pad, h, w, c.outC)
					c.check(t, name, 1+cases%3, rng.Intn((c.outC+3)/4+1), s)
					cases++
				}
			}
		}
	}
	for rem, n := range rems {
		if n == 0 {
			t.Fatalf("no case had an output width ≡ %d mod 8", rem)
		}
	}
	if cases < 150 {
		t.Fatalf("only %d shapes exercised", cases)
	}
}

// FuzzGemmRange holds the conv's GEMM, fed by the padded phase-split input
// and its offset table, to the im2col reference on fuzzer-chosen channel
// counts, kernel size, stride, pad and extents, bias or none, and bit
// patterns: every operand element is four input bytes read as a float32,
// so NaNs, infinities, signed zeros and subnormals all occur. The
// channel-block range is split where the fuzzer says.
func FuzzGemmRange(f *testing.F) {
	f.Add(uint8(7), uint8(8), uint8(16), []byte{0, 0, 128, 63, 0, 0, 192, 127, 1, 0, 0, 128})
	f.Add(uint8(13), uint8(242), uint8(35), []byte("register tile"))
	f.Fuzz(func(t *testing.T, outCSel, geomSel, sizeSel uint8, data []byte) {
		outC := 1 + int(outCSel)%12
		k, stride, pad := []int{1, 3, 5}[geomSel%3], 1+int(geomSel/3)%3, int(geomSel/9)%3
		inC := 1 + int(geomSel/27)%4
		h, w := 1+int(sizeSel)%11, 1+int(sizeSel/11)%24
		if h+2*pad < k || w+2*pad < k {
			return
		}
		next := 0
		word := func() float32 {
			next++
			if len(data) < 4 {
				return float32(next%7) - 3
			}
			o := 4 * next % (len(data) - 3)
			return math.Float32frombits(binary.LittleEndian.Uint32(data[o:]))
		}
		c := newConvCase(inC, h, w, outC, k, stride, pad, geomSel&0x80 == 0, word)
		name := fmt.Sprintf("inC=%d %dx%d outC=%d k=%d stride=%d pad=%d", inC, h, w, outC, k, stride, pad)
		c.check(t, name, 1, int(outCSel/12), &Scratch{})
	})
}

// BenchmarkConvShapes sizes parMinMACs: the seven distinct conv shapes of
// TinyYOLO(64) and TinyTrackerTower(32) at one range and at two ranges
// forced past the floor (run with -cpu 2); the padded copy runs on the
// caller either way, as in a real call. Below the break-even MAC count the
// second range loses to its fan-out cost. DESIGN.md §9 records a run.
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
		macs := len(w) * oh * ow
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/macs=%d/w=%d", sh.name, macs, workers), func(b *testing.B) {
				// Conv2DIm2ColParInto minus the floor, so both widths really run.
				j := getJob()
				defer j.release()
				for i := 0; i < b.N; i++ {
					j.lower(dst, in, w, nil, sh.outC, sh.k, sh.stride, sh.pad, oh, ow, s)
					j.fanOut(opGemm, (sh.outC+3)/4, workers)
				}
			})
		}
	}
}

// lowerRangeRef is the per-element im2col loop: it writes the input's
// (inC·k²) × (oh·ow) patch matrix, row (ic·k + ky)·k + kx for tap
// (ic, ky, kx) and one column per output pixel, +0 at every padding tap.
func lowerRangeRef(patches []float32, in *T, k, stride, pad, oh, ow int) {
	cols := oh * ow
	for u := range in.C * k * k {
		ic := u / (k * k)
		rem := u % (k * k)
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
