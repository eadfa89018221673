package tensor

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The conv and FC kernels are written once, in batch form: N same-shape
// inputs go through one im2col lowering, one GEMM and one FC loop, and a
// solo call is the batch of one. A kernel call splits its work units into
// contiguous ranges: a single range runs on the caller, several run on one
// transient goroutine each while the caller waits, so no goroutine outlives
// the call.
//
// Determinism contract: every output element of sample i is written by
// exactly one goroutine, running the same fixed-order loop body over sample
// i's data alone. Ranges are disjoint and only decide which goroutine
// writes an element, never how it is computed, so each result is
// bitwise-identical for any worker count, any batch composition and any
// (dst, scratch) reuse.

// parMinMACs is the work floor below which a kernel call is one range on
// the caller's goroutine: tiny convolutions and FC heads lose more to
// goroutine fan-out and cache ping-pong than they gain from extra cores.
const parMinMACs = 1 << 18

// op selects the range function a job fans out.
type op uint8

const (
	opLower op = iota
	opGemm
	opFC
)

// job describes one kernel call's fan-out as data: which range function to
// run, its arguments, and how [0,n) splits into chunk-sized ranges. Workers
// claim ranges from the cursor, so starting one takes no per-range closure;
// worker is the method value j.work, built once per descriptor. Descriptors
// are pooled: a warm kernel call allocates nothing at any worker count.
type job struct {
	op               op
	dsts, ins        []*T
	patches, w, bias []float32
	k, stride, pad   int // conv geometry (opLower)
	oh, ow           int
	patchRows, cols  int // GEMM dims (opGemm)
	inN              int // input length (opFC)

	n, chunk int
	next     atomic.Int64 // ranges claimed so far
	wg       sync.WaitGroup
	worker   func()

	dst1, in1 [1]*T // backing for the solo entry points' batch of one
}

var jobs = sync.Pool{New: func() any {
	j := new(job)
	j.worker = j.work
	return j
}}

// release drops the call's references and returns j to the pool.
func (j *job) release() {
	j.dsts, j.ins, j.patches, j.w, j.bias = nil, nil, nil, nil, nil
	j.dst1[0], j.in1[0] = nil, nil
	jobs.Put(j)
}

// fanOut runs range function o over [0,n) split into at most workers
// contiguous ranges, and returns when all are done. One range runs on the
// caller. Otherwise every range gets a transient goroutine and the caller
// waits: were the caller to keep a range for itself, a lone helper would
// sit in its P's runnext slot, which an idle P steals only as a last
// resort and after a timed back-off — at two workers that delay is a
// third of a small layer's whole conv.
func (j *job) fanOut(o op, n, workers int) {
	if n <= 0 {
		return
	}
	workers = max(1, min(workers, n))
	j.op, j.n, j.chunk = o, n, (n+workers-1)/workers
	ranges := (n + j.chunk - 1) / j.chunk
	if ranges == 1 {
		j.run(0, n)
		return
	}
	j.next.Store(0)
	j.wg.Add(ranges)
	for r := 0; r < ranges; r++ {
		go j.worker()
	}
	j.wg.Wait()
}

// work claims the next unclaimed range, computes it and exits.
func (j *job) work() {
	lo := int(j.next.Add(1)-1) * j.chunk
	j.run(lo, min(lo+j.chunk, j.n))
	j.wg.Done()
}

// run computes units [lo,hi) with the job's range function.
func (j *job) run(lo, hi int) {
	switch j.op {
	case opLower:
		lowerRange(j.patches, j.ins, j.k, j.stride, j.pad, j.oh, j.ow, lo, hi)
	case opGemm:
		gemmRange(j.dsts, j.patches, j.w, j.bias, j.patchRows, j.cols, lo, hi)
	case opFC:
		fcRange(j.dsts, j.ins, j.w, j.bias, j.inN, lo, hi)
	}
}

// convShape validates conv arguments and returns the output spatial dims.
func convShape(in *T, wLen, outC, k, stride, pad int) (oh, ow int) {
	if stride <= 0 || k <= 0 {
		panic(fmt.Sprintf("tensor: invalid conv k=%d stride=%d", k, stride))
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

// batchShape validates that every input shares ins[0]'s shape and that dsts
// is a parallel slice of non-nil destinations.
func batchShape(dsts, ins []*T) {
	if len(ins) == 0 || len(dsts) != len(ins) {
		panic(fmt.Sprintf("tensor: batch of %d inputs, %d outputs", len(ins), len(dsts)))
	}
	c, h, w := ins[0].C, ins[0].H, ins[0].W
	for i, in := range ins {
		if in.C != c || in.H != h || in.W != w {
			panic(fmt.Sprintf("tensor: batch input %d is %dx%dx%d, want %dx%dx%d",
				i, in.C, in.H, in.W, c, h, w))
		}
		if dsts[i] == nil {
			panic(fmt.Sprintf("tensor: batch output %d is nil", i))
		}
	}
}

// Conv2DIm2ColBatchInto convolves each ins[i] into dsts[i] by lowering to
// an explicit im2col matrix multiplication — the strategy Caffe/cuDNN-era
// frameworks (the paper's software stack) use to turn convolutions into
// GEMM: it materializes a (inC·k²) × (outH·outW) patch matrix per sample
// and performs a dense multiply with better locality than a direct loop.
// Weights are laid out [outC][inC][k][k]; bias has length outC and may be
// nil. One call amortizes a single fan-out over the whole batch, and the
// GEMM walks output channels outer, samples inner, so each weight row is
// hot in cache while it multiplies every stream's patches.
//
// All inputs must share one shape; every dsts[i] must be non-nil with
// outC·oh·ow elements (scratch Buf slots qualify) and must not alias ins.
// Patch staging for the whole batch comes from s (nil uses a throwaway
// arena), so a warm call allocates nothing. Each sample's result obeys the
// determinism contract above.
//
// The GEMM folds four patch rows into the output per pass (axpy4): four
// output columns at a time in SSE on amd64, the plain Go loop elsewhere,
// bitwise equal either way. That reassociates the floating-point sum
// relative to a direct convolution loop, so equivalence with one is to
// rounding tolerance, not bitwise; the blocking itself is fixed, so
// results never vary run to run. Zero weights still multiply into the sum
// (no sparsity skip), so non-finite inputs propagate exactly as in the
// direct loop: 0·NaN = NaN.
func Conv2DIm2ColBatchInto(dsts, ins []*T, w []float32, bias []float32, outC, k, stride, pad, workers int, s *Scratch) {
	j := jobs.Get().(*job)
	j.conv(dsts, ins, w, bias, outC, k, stride, pad, workers, s)
	j.release()
}

// Conv2DIm2ColParInto is Conv2DIm2ColBatchInto for the batch of one: it
// convolves in into dst (nil allocates the output) and returns it.
func Conv2DIm2ColParInto(dst *T, in *T, w []float32, bias []float32, outC, k, stride, pad, workers int, s *Scratch) *T {
	if dst == nil {
		oh, ow := convShape(in, len(w), outC, k, stride, pad)
		dst = New(outC, oh, ow)
	}
	j := jobs.Get().(*job)
	j.dst1[0], j.in1[0] = dst, in
	j.conv(j.dst1[:], j.in1[:], w, bias, outC, k, stride, pad, workers, s)
	j.release()
	return dst
}

// conv validates a batched convolution, then fans out its lowering and GEMM.
func (j *job) conv(dsts, ins []*T, w, bias []float32, outC, k, stride, pad, workers int, s *Scratch) {
	batchShape(dsts, ins)
	oh, ow := convShape(ins[0], len(w), outC, k, stride, pad)
	for _, dst := range dsts {
		intoShape(dst, outC, oh, ow)
	}
	b := len(ins)
	patchRows := ins[0].C * k * k
	cols := oh * ow
	if int64(b)*int64(outC)*int64(patchRows)*int64(cols) < parMinMACs {
		workers = 1
	}
	if s == nil {
		s = &Scratch{}
	}
	j.dsts, j.ins, j.w, j.bias = dsts, ins, w, bias
	// One contiguous patch matrix for the whole batch: sample i's rows
	// live at patches[i·patchRows·cols : (i+1)·patchRows·cols].
	j.patches = s.Patches(b * patchRows * cols)
	j.k, j.stride, j.pad, j.oh, j.ow = k, stride, pad, oh, ow
	j.patchRows, j.cols = patchRows, cols
	j.fanOut(opLower, b*patchRows, workers)
	j.fanOut(opGemm, b*outC, workers)
}

// lowerRange writes im2col rows [lo,hi) of the batch patch matrix, where
// row u is weight position (ic, ky, kx) = u%patchRows of sample u/patchRows
// and columns are output pixels. Every element is written — out-of-bounds
// (padding) taps get explicit zeros — so the buffer needs no pre-clearing
// and reuse across frames is safe. The in-bounds output interval is worked
// out once per row and axis, so no per-element bounds branch remains.
func lowerRange(patches []float32, ins []*T, k, stride, pad, oh, ow, lo, hi int) {
	patchRows := ins[0].C * k * k
	cols := oh * ow
	for u := lo; u < hi; u++ {
		in, row := ins[u/patchRows], u%patchRows
		ic := row / (k * k)
		rem := row % (k * k)
		offY, offX := rem/k-pad, rem%k-pad // input index = output index·stride + off
		oyLo, oyHi := tapSpan(offY, stride, in.H, oh)
		oxLo, oxHi := tapSpan(offX, stride, in.W, ow)
		plane := in.Data[ic*in.H*in.W : (ic+1)*in.H*in.W]
		dst := patches[u*cols : (u+1)*cols]
		if oxLo == oxHi {
			clear(dst) // every column of this tap is padding
			continue
		}
		clear(dst[:oyLo*ow])
		clear(dst[oyHi*ow:])
		for oy := oyLo; oy < oyHi; oy++ {
			out := dst[oy*ow : (oy+1)*ow]
			src := plane[(oy*stride+offY)*in.W : (oy*stride+offY+1)*in.W]
			clear(out[:oxLo])
			clear(out[oxHi:])
			if stride == 1 {
				copy(out[oxLo:oxHi], src[oxLo+offX:])
				continue
			}
			for ox, ix := oxLo, oxLo*stride+offX; ox < oxHi; ox, ix = ox+1, ix+stride {
				out[ox] = src[ix]
			}
		}
	}
}

// tapSpan returns the output interval [lo,hi) ⊆ [0,outN) whose input index
// o·stride + off lands inside [0,inN); it is empty (lo == hi) when no
// output does.
func tapSpan(off, stride, inN, outN int) (lo, hi int) {
	if off < 0 {
		lo = (-off + stride - 1) / stride
	}
	if inN > off {
		hi = (inN - off + stride - 1) / stride
	}
	lo = min(lo, outN)
	return lo, max(lo, min(hi, outN))
}

// gemmRange computes GEMM units [lo,hi), where unit u is output channel
// u/len(dsts) of sample u%len(dsts) — channel-major, so consecutive units
// reuse one hot weight row across the whole batch:
// out[oc][col] = Σ_r w[oc][r] · patches[r][col] (+ bias).
func gemmRange(dsts []*T, patches, w, bias []float32, patchRows, cols, lo, hi int) {
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

// axpy4Go is the GEMM's four-row step in plain Go:
// acc[c] += w0·s0[c] + w1·s1[c] + w2·s2[c] + w3·s3[c], summed left to
// right, for every c in acc. It is axpy4 on every GOARCH but amd64, and on
// amd64 the reference the SSE routine is held to bit for bit. Each s must
// hold len(acc) elements.
func axpy4Go(acc, s0, s1, s2, s3 []float32, w0, w1, w2, w3 float32) {
	s0, s1, s2, s3 = s0[:len(acc)], s1[:len(acc)], s2[:len(acc)], s3[:len(acc)]
	for c, v0 := range s0 {
		acc[c] += w0*v0 + w1*s1[c] + w2*s2[c] + w3*s3[c]
	}
}

// FullyConnectedBatchInto computes dsts[i] = W·flatten(ins[i]) + bias for
// every sample in one call, where w is row-major [outN][inN] and bias may
// be nil. All inputs must share one shape; every dsts[i] must be non-nil
// with outN elements. A warm call allocates nothing, and each sample's
// result obeys the determinism contract above.
func FullyConnectedBatchInto(dsts, ins []*T, w []float32, bias []float32, outN, workers int) {
	j := jobs.Get().(*job)
	j.fc(dsts, ins, w, bias, outN, workers)
	j.release()
}

// FullyConnectedParInto is FullyConnectedBatchInto for the batch of one:
// it computes in's layer into dst (nil allocates) and returns it.
func FullyConnectedParInto(dst *T, in *T, w []float32, bias []float32, outN, workers int) *T {
	if dst == nil {
		dst = New(outN, 1, 1)
	}
	j := jobs.Get().(*job)
	j.dst1[0], j.in1[0] = dst, in
	j.fc(j.dst1[:], j.in1[:], w, bias, outN, workers)
	j.release()
	return dst
}

// fc validates a batched fully connected layer, then fans out its neurons.
func (j *job) fc(dsts, ins []*T, w, bias []float32, outN, workers int) {
	batchShape(dsts, ins)
	inN := ins[0].Len()
	if len(w) != outN*inN {
		panic(fmt.Sprintf("tensor: fc weights len %d, want %d", len(w), outN*inN))
	}
	for _, dst := range dsts {
		intoShape(dst, outN, 1, 1)
	}
	if int64(len(ins))*int64(outN)*int64(inN) < parMinMACs {
		workers = 1
	}
	j.dsts, j.ins, j.w, j.bias, j.inN = dsts, ins, w, bias, inN
	j.fanOut(opFC, outN, workers)
}

// fcRange computes output neurons [lo,hi) for every sample, neurons outer
// and samples inner so each weight row is read once while hot. Each dot
// product runs four interleaved accumulator chains — a fixed
// reassociation, which roughly doubles single-core throughput on the FC
// heads.
func fcRange(dsts, ins []*T, w, bias []float32, inN, lo, hi int) {
	for o := lo; o < hi; o++ {
		row := w[o*inN : (o+1)*inN]
		for s, in := range ins {
			x := in.Data[:len(row)] // one bounds check here, none in the loop
			var s0, s1, s2, s3 float32
			i := 0
			for ; i+4 <= inN; i += 4 {
				s0 += row[i] * x[i]
				s1 += row[i+1] * x[i+1]
				s2 += row[i+2] * x[i+2]
				s3 += row[i+3] * x[i+3]
			}
			sum := s0 + s1 + s2 + s3
			for ; i < inN; i++ {
				sum += row[i] * x[i]
			}
			if bias != nil {
				sum += bias[o]
			}
			dsts[s].Data[o] = sum
		}
	}
}
