package tensor

import (
	"fmt"
	"sync"
)

// parMinMACs is the work floor below which the parallel kernels run on the
// caller's goroutine: tiny convolutions and FC heads lose more to goroutine
// fan-out and cache ping-pong than they gain from extra cores.
const parMinMACs = 1 << 18

// shard splits [0,n) into at most workers contiguous ranges and runs fn on
// each range from its own goroutine, blocking until all complete. Ranges are
// disjoint, so fn bodies that only write elements inside their range never
// share memory — the output is bitwise-independent of the worker count.
// workers <= 1 degrades to a plain call on the caller's goroutine.
func shard(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
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

// lowerPatches writes the im2col patch matrix for in into patches: rows are
// (ic, ky, kx) weight positions, columns are output pixels. Every element is
// written — out-of-bounds (padding) taps get explicit zeros — so the buffer
// needs no pre-clearing and reuse across frames is safe.
//
// The kernels below split each loop body into a top-level ...Range function
// plus a thin dispatcher: when workers <= 1 the range function is called
// directly, so no closure is materialized and a warm serial call performs
// zero heap allocations (gated by TestAlloc*). The parallel branch builds
// the closure that shard's goroutines need — a couple of transient
// allocations, amortized by the fan-out they pay for.
func lowerPatches(patches []float32, in *T, k, stride, pad, oh, ow, workers int) {
	patchRows := in.C * k * k
	if workers <= 1 || patchRows <= 1 {
		lowerPatchesRange(patches, in, k, stride, pad, oh, ow, 0, patchRows)
		return
	}
	shard(patchRows, workers, func(lo, hi int) {
		lowerPatchesRange(patches, in, k, stride, pad, oh, ow, lo, hi)
	})
}

// lowerPatchesRange writes patch-matrix rows [lo,hi).
func lowerPatchesRange(patches []float32, in *T, k, stride, pad, oh, ow, lo, hi int) {
	cols := oh * ow
	for row := lo; row < hi; row++ {
		ic := row / (k * k)
		rem := row % (k * k)
		ky, kx := rem/k, rem%k
		chanOff := ic * in.H * in.W
		dst := patches[row*cols : (row+1)*cols]
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

// Conv2DIm2ColParInto computes the same convolution as Conv2D by lowering
// to an explicit im2col matrix multiplication — the strategy Caffe/cuDNN-era
// frameworks (the paper's software stack) use to turn convolutions into
// GEMM: it materializes a (inC·k²) × (outH·outW) patch matrix and performs a
// dense multiply with better locality than the direct loop. The lowering is
// sharded across weight-position rows and the GEMM across output channels,
// over up to workers goroutines; every output element is produced by
// exactly one goroutine in the serial inner-loop order, so the result is
// bitwise-identical for any worker count.
//
// The output is written into dst and every intermediate buffer is drawn
// from s, so a warm call allocates nothing. dst nil allocates the output; s
// nil uses a throwaway arena. dst must not alias in. Buffer reuse never
// changes arithmetic: results are bitwise-identical for any (dst, s).
//
// The GEMM accumulates four patch rows per pass (register blocking). That
// reassociates the floating-point sum relative to the direct Conv2D loop,
// so equivalence with Conv2D is to rounding tolerance, not bitwise; the
// blocking itself is fixed, so results never vary run to run. Zero weights
// still multiply into the sum (no sparsity skip), so non-finite inputs
// propagate exactly as in Conv2D: 0·NaN = NaN.
func Conv2DIm2ColParInto(dst *T, in *T, w []float32, bias []float32, outC, k, stride, pad, workers int, s *Scratch) *T {
	oh, ow := convShape(in, len(w), outC, k, stride, pad)
	patchRows := in.C * k * k
	cols := oh * ow
	if int64(outC)*int64(patchRows)*int64(cols) < parMinMACs {
		workers = 1
	}
	if s == nil {
		s = &Scratch{}
	}
	patches := s.Patches(patchRows * cols)
	lowerPatches(patches, in, k, stride, pad, oh, ow, workers)

	// GEMM: out[oc][col] = Σ_r w[oc][r] · patches[r][col] (+ bias). Each
	// output channel is written by exactly one goroutine.
	out := intoShape(dst, outC, oh, ow)
	if workers <= 1 {
		convGemmRange(out.Data, patches, w, bias, patchRows, cols, 0, outC)
	} else {
		shard(outC, workers, func(lo, hi int) {
			convGemmRange(out.Data, patches, w, bias, patchRows, cols, lo, hi)
		})
	}
	return out
}

// convGemmRange computes output channels [lo,hi) of the im2col GEMM.
func convGemmRange(out, patches, w, bias []float32, patchRows, cols, lo, hi int) {
	for oc := lo; oc < hi; oc++ {
		acc := out[oc*cols : (oc+1)*cols]
		var b float32
		if bias != nil {
			b = bias[oc]
		}
		for i := range acc {
			acc[i] = b
		}
		wRow := w[oc*patchRows : (oc+1)*patchRows]
		r := 0
		for ; r+4 <= patchRows; r += 4 {
			w0, w1, w2, w3 := wRow[r], wRow[r+1], wRow[r+2], wRow[r+3]
			s0 := patches[r*cols : (r+1)*cols]
			s1 := patches[(r+1)*cols : (r+2)*cols]
			s2 := patches[(r+2)*cols : (r+3)*cols]
			s3 := patches[(r+3)*cols : (r+4)*cols]
			for i, v0 := range s0 {
				acc[i] += w0*v0 + w1*s1[i] + w2*s2[i] + w3*s3[i]
			}
		}
		for ; r < patchRows; r++ {
			wv := wRow[r]
			src := patches[r*cols : (r+1)*cols]
			for i, pv := range src {
				acc[i] += wv * pv
			}
		}
	}
}

// FullyConnectedParInto computes out = W·flatten(in) + bias into dst (nil
// allocates), where w is row-major [outN][inN] and bias may be nil. Output
// neurons are sharded over up to workers goroutines. Each dot product runs
// four interleaved accumulator chains (a fixed reassociation, identical for
// every worker count and destination, so results are bitwise-stable), which
// roughly doubles single-core throughput on the FC heads.
func FullyConnectedParInto(dst *T, in *T, w []float32, bias []float32, outN, workers int) *T {
	inN := in.Len()
	if len(w) != outN*inN {
		panic(fmt.Sprintf("tensor: fc weights len %d, want %d", len(w), outN*inN))
	}
	if int64(outN)*int64(inN) < parMinMACs {
		workers = 1
	}
	out := intoShape(dst, outN, 1, 1)
	if workers <= 1 {
		fcRange(out.Data, in.Data, w, bias, inN, 0, outN)
	} else {
		shard(outN, workers, func(lo, hi int) {
			fcRange(out.Data, in.Data, w, bias, inN, lo, hi)
		})
	}
	return out
}

// fcRange computes output neurons [lo,hi) of the fully connected layer.
func fcRange(out, x, w, bias []float32, inN, lo, hi int) {
	for o := lo; o < hi; o++ {
		row := w[o*inN : (o+1)*inN]
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
		out[o] = sum
	}
}
