package tensor

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// The conv and FC kernels run on their caller: a conv is one padded copy of
// the input and one GEMM over blocks of four output channels, an FC layer
// one loop over output neurons. The engines get their parallelism between
// stages and frames, and TRA and LOC fan their own work out through Each,
// which runs its units on transient goroutines while the caller waits, so
// no goroutine outlives the call.
//
// Determinism contract: every output element is computed by one fixed-order
// loop body, so each result is bitwise-identical for any (dst, scratch)
// reuse. The range functions take a [lo,hi) range of channel blocks or
// neurons, and computing a split range gives the same bits as one range.

// job describes one Each call's fan-out as data: the per-unit callback and
// the cursor that hands out units. Workers claim units from the cursor, so
// starting one takes no per-unit closure; worker is the method value
// j.work, built once per descriptor. Descriptors are reused through jobs: a
// warm call allocates nothing at any worker count.
type job struct {
	each   func(w, i int)
	n      int
	next   atomic.Int64 // units claimed so far
	ids    atomic.Int64 // worker indices handed out so far
	wg     sync.WaitGroup
	worker func()
}

// jobs is the descriptors' free list. TRA's per-track fan-out and LOC's
// matcher are the only callers of Each, so this is all the fan-out state
// there is. Unlike a sync.Pool it keeps descriptors across garbage
// collections, so overlapping fan-outs (LOC's matcher beside TRA's tracks)
// allocate none after warm-up. It holds at most as many as were ever in
// flight at once. The capacity covers a fleet of 20 vehicles' fan-outs in
// flight together (TRA and LOC each); a descriptor released into a full
// list is left to the collector.
var jobs = make(chan *job, 64)

// Each calls fn(w, i) once for every i in [0,n) on at most workers workers,
// each claiming the next unclaimed i, and returns when every call is done.
// w is the calling worker's index, below min(n, workers), so fn may use
// scratch it indexes by w without locking. Which worker gets which i
// varies from call to call. One worker runs on the caller. Otherwise every
// worker is a transient goroutine and the caller waits: were the caller to
// work too, a lone helper would sit in its P's runnext slot, which an idle
// P steals only as a last resort and after a timed back-off.
func Each(n, workers int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	workers = max(1, min(workers, n))
	if workers == 1 {
		for i := range n {
			fn(0, i)
		}
		return
	}
	var j *job
	select {
	case j = <-jobs:
	default:
		j = new(job)
		j.worker = j.work
	}
	j.each, j.n = fn, n
	j.next.Store(0)
	j.ids.Store(0)
	j.wg.Add(workers)
	for range workers {
		go j.worker()
	}
	j.wg.Wait()
	j.each = nil
	select {
	case jobs <- j:
	default:
	}
}

// work takes the next worker index, then claims and runs units until none
// is left.
func (j *job) work() {
	w := int(j.ids.Add(1) - 1)
	for {
		i := int(j.next.Add(1) - 1)
		if i >= j.n {
			break
		}
		j.each(w, i)
	}
	j.wg.Done()
}

// convShape validates conv arguments and returns the output spatial dims.
func convShape(in *T, wLen, outC, k, stride, pad int) (oh, ow int) {
	if stride <= 0 || k <= 0 || pad < 0 {
		panic(fmt.Sprintf("tensor: invalid conv k=%d stride=%d pad=%d", k, stride, pad))
	}
	if wLen != outC*in.C*k*k {
		panic(fmt.Sprintf("tensor: conv weights len %d, want %d", wLen, outC*in.C*k*k))
	}
	oh = (in.H+2*pad-k)/stride + 1
	ow = (in.W+2*pad-k)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv output %dx%d non-positive", oh, ow))
	}
	return oh, ow
}

// intoShape returns dst reshaped to c×h×w, allocating a fresh tensor when
// dst is nil. dst's backing array must already hold c·h·w elements; the
// scratch Buf slots guarantee that.
func intoShape(dst *T, c, h, w int) *T {
	if dst == nil {
		return New(c, h, w)
	}
	if len(dst.Data) != c*h*w {
		panic(fmt.Sprintf("tensor: dst holds %d elements, want %dx%dx%d", len(dst.Data), c, h, w))
	}
	dst.C, dst.H, dst.W = c, h, w
	return dst
}

// Conv2DIm2ColParInto convolves in into dst as a matrix multiplication —
// the strategy Caffe/cuDNN-era frameworks (the paper's software stack) use
// to turn convolutions into GEMM — without materializing the im2col patch
// matrix: the input is copied once, zero-padded, and the GEMM reads every
// patch row in place from that copy through a per-layer offset table.
// Weights are laid out [outC][inC][k][k]; bias has length outC and may be
// nil. dst is nil (the output is allocated) or holds outC·oh·ow elements
// (scratch Buf slots qualify) and does not alias in; it is returned. The
// padded copy and the offset table come from s (nil uses a throwaway
// arena), so a warm call allocates nothing. The call runs on its caller;
// workers is ignored, and kept for the benchmark harness in bench/ only.
//
// The GEMM sums four patch rows at a time and adds each group to the
// output: four output channels × eight columns of one output row per
// register tile (gemm4x8) in SSE on amd64, the plain Go loop elsewhere and
// for a partial block of channels, bitwise equal either way. That
// reassociates the floating-point sum relative to a direct convolution
// loop, so equivalence with one is to rounding tolerance, not bitwise; the
// grouping itself is fixed, so results never vary run to run. Zero weights
// still multiply into the sum (no sparsity skip), so non-finite inputs
// propagate exactly as in the direct loop: 0·NaN = NaN.
func Conv2DIm2ColParInto(dst *T, in *T, w []float32, bias []float32, outC, k, stride, pad, workers int, s *Scratch) *T {
	oh, ow := convShape(in, len(w), outC, k, stride, pad)
	dst = intoShape(dst, outC, oh, ow)
	if s == nil {
		s = &Scratch{}
	}
	l := lower(in, k, stride, pad, oh, ow, s)
	gemmRange(dst.Data, l.x, l.off, w, bias, outC, l.rows, l.width, l.pitch, 0, (outC+3)/4)
	return dst
}

// Conv2DIm2ColBatchInto runs Conv2DIm2ColParInto(dsts[i], ins[i], …) for
// each i. It is a loop kept for the benchmark harness in bench/ only, and
// goes once bench/ stops calling it.
func Conv2DIm2ColBatchInto(dsts, ins []*T, w []float32, bias []float32, outC, k, stride, pad, workers int, s *Scratch) {
	for i, in := range ins {
		Conv2DIm2ColParInto(dsts[i], in, w, bias, outC, k, stride, pad, workers, s)
	}
}

// lowering is a convolution staged for gemmRange: the padded, phase-split
// input x, the offset table off, and the output's geometry as rows rows of
// width columns, read pitch floats apart in x.
type lowering struct {
	x                  []float32
	off                []int32
	rows, width, pitch int
}

// lower stages a convolution's GEMM in s. The input becomes stride² phase
// planes per channel, each ph × pw with ph = oh + (k−1)/stride and
// pw = ow + (k−1)/stride: phase (a, b) holds
// padded[qy·stride+a][qx·stride+b], where padded is the channel
// zero-padded by pad. Then tap (ic, ky, kx) of output (oy, ox) is
// padded[oy·stride+ky][ox·stride+kx], which is row oy + ky/stride, column
// ox + kx/stride of phase (ky%stride, kx%stride): for a fixed tap the
// columns of an output row are one contiguous run. off[r] is that run's
// start for output (0, 0), r = (ic·k + ky)·k + kx, and output row oy
// reads it from oy·pw further on. Stride 1 is the one-phase case. The copy
// holds each input value about once, where an im2col matrix holds it k²
// times.
func lower(in *T, k, stride, pad, oh, ow int, s *Scratch) lowering {
	halo := (k - 1) / stride
	ph, pw := oh+halo, ow+halo
	n := in.C * stride * stride * ph * pw
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: conv padded input of %d elements overflows the int32 offset table", n))
	}
	padded := s.padded(n + tileSlack)
	padPhases(padded[:n], in, stride, pad, ph, pw)
	clear(padded[n:])
	// Channel ic's taps sit ic·stride² planes after channel 0's.
	off, taps, plane := s.offsets(in.C*k*k), k*k, ph*pw
	for t := range taps {
		ky, kx := t/k, t%k
		off[t] = int32((ky%stride*stride+kx%stride)*plane + ky/stride*pw + kx/stride)
	}
	for r := taps; r < len(off); r++ {
		off[r] = off[r-taps] + int32(stride*stride*plane)
	}
	if pw == ow {
		// No halo (k ≤ stride): output rows lie end to end in the planes
		// as in the output, so the GEMM sees one row of oh·ow columns.
		return lowering{padded, off, 1, oh * ow, pw}
	}
	return lowering{padded, off, oh, ow, pw}
}

// padPhases writes the input's phase planes (see lower) into dst, which
// holds in.C·stride² planes of ph × pw, phases of one channel adjacent.
// dst is cleared first, then every input value that lands in a plane is
// copied once, so padding and positions past the padded edge read zero.
func padPhases(dst []float32, in *T, stride, pad, ph, pw int) {
	clear(dst)
	plane := ph * pw
	for c := 0; c < in.C; c++ {
		for iy := 0; iy < in.H; iy++ {
			y := iy + pad
			if y/stride >= ph {
				break
			}
			src := in.Data[(c*in.H+iy)*in.W:][:in.W]
			phases := dst[(c*stride+y%stride)*stride*plane+y/stride*pw:]
			if stride == 1 {
				copy(phases[pad:pw], src)
				continue
			}
			for b := range stride {
				row := phases[b*plane:][:pw]
				ix := ((b-pad)%stride + stride) % stride // first column of phase b
				for qx := (ix + pad) / stride; ix < in.W && qx < pw; ix, qx = ix+stride, qx+1 {
					row[qx] = src[ix]
				}
			}
		}
	}
}

// gemmRange computes channel blocks [lo,hi) of the GEMM into dst, where
// block blk is output channels 4·blk … 4·blk+3, fewer in the last block.
// x is the padded input, tileSlack floats longer than its planes. Each
// output channel is rows rows of width columns; with depth = len(off),
// dst[oc][y·width+c] = bias[oc] + Σ_r w[oc][r] · x[off[r] + y·pitch + c].
// A full block runs each row through the gemm4x8 register tile eight
// columns at a time, and the last width%8 columns through one edge tile
// into a buffer, of which only the lanes inside the row are copied out
// (the others may read the next row or plane, or the slack). A partial
// block runs through gemmRow. Both compute every element with the same
// operations in the same order, so which one covers an element changes no
// bit.
func gemmRange(dst, x []float32, off []int32, w, bias []float32, outC, rows, width, pitch, lo, hi int) {
	depth, cols := len(off), rows*width
	n8, c8 := width/8, width/8*8
	for blk := lo; blk < hi; blk++ {
		oc0 := blk * 4
		oc1 := min(oc0+4, outC)
		out := dst[oc0*cols : oc1*cols]
		if oc1-oc0 < 4 {
			for oc := oc0; oc < oc1; oc++ {
				var bv float32
				if bias != nil {
					bv = bias[oc]
				}
				row, wRow := out[(oc-oc0)*cols:][:cols], w[oc*depth:(oc+1)*depth]
				for y := range rows {
					gemmRow(row[y*width:][:width], x[y*pitch:], off, wRow, bv)
				}
			}
			continue
		}
		bias4 := &zeroBias
		if bias != nil {
			bias4 = (*[4]float32)(bias[oc0:oc1])
		}
		wb := w[oc0*depth : oc1*depth]
		for y := range rows {
			o, base := y*width, y*pitch
			gemm4x8(out[o:], x[base:], off, wb, bias4, depth, cols, n8)
			if c8 == width {
				continue
			}
			var edge [4 * 8]float32
			gemm4x8(edge[:], x[base+c8:], off, wb, bias4, depth, 8, 1)
			for ch := range 4 {
				copy(out[ch*cols+o+c8:][:width-c8], edge[8*ch:])
			}
		}
	}
}

// tileSlack is how many floats the padded input holds past its last
// plane. An edge tile reads eight columns where fewer are left in the
// row; its other lanes run on into the halo, the next row or plane, or,
// at the very end, up to seven floats into this slack, and are dropped.
const tileSlack = 7

// zeroBias is the register tile's bias when a layer has none.
var zeroBias [4]float32

// gemmRow computes one output row over len(acc) columns:
// acc[c] = bv + Σ_r wRow[r] · x[off[r] + c], four patch rows per axpy4
// and the leftover rows one at a time.
func gemmRow(acc, x []float32, off []int32, wRow []float32, bv float32) {
	n := len(acc)
	for c := range acc {
		acc[c] = bv
	}
	off = off[:len(wRow)]
	r := 0
	for ; r+4 <= len(wRow); r += 4 {
		axpy4(acc, x[off[r]:], x[off[r+1]:], x[off[r+2]:], x[off[r+3]:],
			wRow[r], wRow[r+1], wRow[r+2], wRow[r+3])
	}
	for ; r < len(wRow); r++ {
		wv := wRow[r]
		for c, pv := range x[off[r]:][:n] {
			acc[c] += float32(wv * pv)
		}
	}
}

// gemm4x8Go is the register tile in plain Go: out's four rows (stride
// cols) over their first 8·n columns, channel ch starting from bias[ch],
// reading weights w[ch·depth : (ch+1)·depth] and patch row r at
// in[off[r]:]. It is gemm4x8 on every GOARCH but amd64, and on amd64 the
// reference the SSE routine is held to.
func gemm4x8Go(out, in []float32, off []int32, w []float32, bias *[4]float32, depth, cols, n int) {
	for ch := range 4 {
		gemmRow(out[ch*cols:ch*cols+8*n], in, off[:depth], w[ch*depth:(ch+1)*depth], bias[ch])
	}
}

// axpy4 is the GEMM's four-row step:
// acc[c] += w0·s0[c] + w1·s1[c] + w2·s2[c] + w3·s3[c], summed left to
// right, for every c in acc. Each s must hold len(acc) elements. The SSE
// tile does this arithmetic per lane; the loop covers a partial block of
// channels, and is the Go tile's step.
func axpy4(acc, s0, s1, s2, s3 []float32, w0, w1, w2, w3 float32) {
	s0, s1, s2, s3 = s0[:len(acc)], s1[:len(acc)], s2[:len(acc)], s3[:len(acc)]
	for c, v0 := range s0 {
		acc[c] += float32(w0*v0) + float32(w1*s1[c]) + float32(w2*s2[c]) + float32(w3*s3[c])
	}
}

// FullyConnectedParInto computes dst = W·flatten(in) + bias, where w is
// row-major [outN][inN] and bias may be nil. dst is nil (the output is
// allocated) or holds outN elements; it is returned. A warm call allocates
// nothing. The call runs on its caller; workers is ignored, and kept for
// the benchmark harness in bench/ only.
func FullyConnectedParInto(dst *T, in *T, w []float32, bias []float32, outN, workers int) *T {
	inN := in.Len()
	if len(w) != outN*inN {
		panic(fmt.Sprintf("tensor: fc weights len %d, want %d", len(w), outN*inN))
	}
	dst = intoShape(dst, outN, 1, 1)
	fcRange(dst, in, w, bias, inN, 0, outN)
	return dst
}

// fcRange computes output neurons [lo,hi). Each dot product runs four
// interleaved accumulator chains — a fixed reassociation, which roughly
// doubles single-core throughput on the FC heads — then sums them
// ((s0 + s1) + s2) + s3, adds the last inN%4 products one at a time and the
// bias. The chains come from fcDot4 four neurons at a time (the SSE
// routine on amd64), and from fcChains for a range's last (hi−lo)%4.
func fcRange(dst, in *T, w, bias []float32, inN, lo, hi int) {
	x := in.Data[:inN]
	var s [4][4]float32
	for o := lo; o < hi; {
		n := 4
		if o+4 <= hi {
			fcDot4(&s, w[o*inN:(o+4)*inN], x)
		} else {
			n = 1
			s[0] = fcChains(w[o*inN:(o+1)*inN], x)
		}
		for k, c := range s[:n] {
			row := w[(o+k)*inN:][:inN]
			sum := c[0] + c[1] + c[2] + c[3]
			for i := inN &^ 3; i < inN; i++ {
				sum += float32(row[i] * x[i])
			}
			if bias != nil {
				sum += bias[o+k]
			}
			dst.Data[o+k] = sum
		}
		o += n
	}
}

// fcChains returns row's four accumulator chains against x:
// s[j] = Σ row[4i+j]·x[4i+j] over i < len(row)/4, added in i order.
func fcChains(row, x []float32) [4]float32 {
	x = x[:len(row)] // one bounds check here, none in the loop
	var s0, s1, s2, s3 float32
	for i := 0; i+4 <= len(row); i += 4 {
		s0 += float32(row[i] * x[i])
		s1 += float32(row[i+1] * x[i+1])
		s2 += float32(row[i+2] * x[i+2])
		s3 += float32(row[i+3] * x[i+3])
	}
	return [4]float32{s0, s1, s2, s3}
}

// fcDot4Go fills s[k] with fcChains of row k, w[k·len(x):(k+1)·len(x)],
// for k < 4. It is fcDot4 on every GOARCH but amd64, and on amd64 the
// reference the SSE routine is held to.
func fcDot4Go(s *[4][4]float32, w, x []float32) {
	n := len(x)
	for k := range s {
		s[k] = fcChains(w[k*n:(k+1)*n], x)
	}
}
