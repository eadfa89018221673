package tensor

import (
	"fmt"
	"math/rand"
	"slices"
	"syscall"
	"testing"
	"unsafe"
)

// guardedBytes maps four accessible pages between two inaccessible ones,
// so a slice placed flush against either edge of the accessible region
// faults on any access past its end or before its start. The returned
// slice is the accessible region.
func guardedBytes(t *testing.T) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 6*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[:page], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	if err := syscall.Mprotect(mem[5*page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return mem[page : 5*page]
}

// guarded places a copy of src flush against the start or, when atEnd,
// the end of the accessible region mem, capacity included.
func guarded[E float32 | int32](t *testing.T, mem []byte, src []E, atEnd bool) []E {
	t.Helper()
	all := unsafe.Slice((*E)(unsafe.Pointer(&mem[0])), len(mem)/int(unsafe.Sizeof(src[0])))
	n := len(src)
	if n > len(all) {
		t.Fatalf("operand of %d elements exceeds the %d-element guarded region", n, len(all))
	}
	dst := all[:n:n]
	if atEnd {
		dst = all[len(all)-n:]
	}
	copy(dst, src)
	return dst
}

// tileCall is one gemm4x8 call: its operands, each exactly as long as the
// routine's contract asks, and the Go loop's output for it.
type tileCall struct {
	in      []float32
	off     []int32
	w       []float32
	bias    [4]float32
	cols, n int
	want    []float32
	name    string
}

// newTileCall cuts in to the contract's extent, max(off) + 8·n elements
// (none at depth 0), and computes the Go loop's output.
func newTileCall(name string, in []float32, off []int32, w []float32, bias *[4]float32, cols, n int) tileCall {
	size := 0
	if len(off) > 0 {
		size = int(slices.Max(off)) + 8*n
	}
	c := tileCall{in: in[:size], off: off, w: w, bias: *bias, cols: cols, n: n, name: name}
	c.want = make([]float32, 3*cols+8*n)
	gemm4x8Go(c.want, c.in, off, w, bias, len(off), cols, n)
	return c
}

// The register tile must touch nothing outside its operands' documented
// extents. Two sweeps make the calls: a plain patch matrix (patchTable) at
// every depth 0–13, so the four-row step and every leftover-row count
// occur, with one to three tiles per row and rows 0–3 columns wider; and
// every tile call gemmRange makes on real conv geometry — kernel sizes 1,
// 3 and 5 over one to four input channels (depths with every remainder
// mod 4), strides 1–3, pads 0–2, rows of one and two tiles with and
// without an edge tile, and of an edge tile alone, rows of their own and
// rows merged end to end. Each call gets the input (the slack included)
// cut to max(off) + 8·n elements from the call's origin, the offset
// table's depth entries, 4·depth weights, 3·cols + 8·n outputs and the
// bias, each flush against a guard page at its start or its end. An
// out-of-bounds read or write faults the test; the result must also equal
// the Go loop's.
func TestGemm4x8StaysInsideGuardPages(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	draw := func() float32 { return float32(rng.NormFloat64()) }
	fill := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = draw()
		}
		return s
	}
	var calls []tileCall
	for depth := 0; depth <= 13; depth++ {
		for n := 1; n <= 3; n++ {
			for cols := 8 * n; cols <= 8*n+3; cols++ {
				var bias [4]float32
				copy(bias[:], fill(4))
				name := fmt.Sprintf("patch matrix depth=%d n=%d cols=%d", depth, n, cols)
				calls = append(calls, newTileCall(name, fill(depth*cols+8*n), patchTable(depth, cols), fill(4*depth), &bias, cols, n))
			}
		}
	}
	for _, k := range []int{1, 3, 5} {
		for inC := 1; inC <= 4; inC++ {
			for stride := 1; stride <= 3; stride++ {
				for pad := 0; pad <= 2; pad++ {
					for _, ow := range []int{5, 8, 9, 11, 16, 19} {
						for oh := 1; oh <= 2; oh++ {
							h, w := (oh-1)*stride+k-2*pad, (ow-1)*stride+k-2*pad
							if h < 1 || w < 1 {
								continue
							}
							c := newConvCase(inC, h, w, 4, k, stride, pad, true, draw)
							j := getJob()
							j.lower(New(4, oh, ow), c.in, c.w, c.bias, 4, k, stride, pad, oh, ow, &Scratch{})
							// gemmRange's tile calls: a row's full tiles (out
							// stride rows·width), then its edge tile (out
							// stride 8).
							for y, n8 := 0, j.width/8; y < j.rows; y++ {
								name := fmt.Sprintf("k=%d inC=%d stride=%d pad=%d %dx%d row %d", k, inC, stride, pad, h, w, y)
								bias := (*[4]float32)(c.bias)
								if n8 > 0 {
									calls = append(calls, newTileCall(name, j.padded[y*j.pitch:], j.off, c.w, bias, j.rows*j.width, n8))
								}
								if j.width%8 != 0 {
									calls = append(calls, newTileCall(name+" edge", j.padded[y*j.pitch+8*n8:], j.off, c.w, bias, 8, 1))
								}
							}
							j.release()
						}
					}
				}
			}
		}
	}
	oMem, iMem, tMem, wMem, bMem := guardedBytes(t), guardedBytes(t), guardedBytes(t), guardedBytes(t), guardedBytes(t)
	depths := map[int]bool{}
	for _, c := range calls {
		depths[len(c.off)] = true
		for edges := 0; edges < 32; edges++ {
			gi := guarded(t, iMem, c.in, edges&1 != 0)
			gt := guarded(t, tMem, c.off, edges&2 != 0)
			gw := guarded(t, wMem, c.w, edges&4 != 0)
			gb := (*[4]float32)(guarded(t, bMem, c.bias[:], edges&8 != 0))
			out := guarded(t, oMem, make([]float32, len(c.want)), edges&16 != 0)
			gemm4x8(out, gi, gt, gw, gb, len(c.off), c.cols, c.n)
			for i := range c.want {
				if out[i] != c.want[i] {
					t.Fatalf("%s edges=%d: out[%d] = %v, Go loop %v", c.name, edges, i, out[i], c.want[i])
				}
			}
		}
	}
	for _, d := range []int{0, 1, 2, 3, 4, 9, 18, 25, 27, 36, 50, 75, 100} {
		if !depths[d] {
			t.Fatalf("no guarded tile call at depth %d", d)
		}
	}
}

// The DNN leaf routines must touch nothing outside their documented
// extents either: for every length 0–13 (each step count and tail), pool4
// gets its output row and exactly 2·(len &^ 3) floats of each input row,
// relu4 and leaky4 their slice, and fc4 its chains, x and exactly
// 3·len(x) + len(x) &^ 3 weights, each flush against a guard page at its
// start or its end. An out-of-bounds access faults the test; the covered
// outputs must equal the Go form's and the rest stay as they were.
func TestDNNLeavesStayInsideGuardPages(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	draw := leafDraw(rng, true)
	mems := [3][]byte{guardedBytes(t), guardedBytes(t), guardedBytes(t)}
	for n := 0; n <= 13; n++ {
		n4 := n &^ 3
		top, bot := leafSlice(draw, 0, 2*n4), leafSlice(draw, 0, 2*n4)
		want := make([]float32, n4)
		poolRowGo(want, top, bot)
		v := leafSlice(draw, 0, n)
		reluWant := append([]float32(nil), v[:n4]...)
		reluGo(reluWant)
		leakyWant := append([]float32(nil), v[:n4]...)
		leakyGo(leakyWant, 0.1)
		x, w := leafSlice(leafDraw(rng, false), 0, n), leafSlice(leafDraw(rng, false), 0, 3*n+n4)
		var fcWant [4][4]float32
		fcDot4Go(&fcWant, append(w, make([]float32, n-n4)...), x)
		for edges := 0; edges < 8; edges++ {
			name := fmt.Sprintf("n=%d edges=%d", n, edges)
			o := guarded(t, mems[0], v, edges&1 != 0)
			pool4(o, guarded(t, mems[1], top, edges&2 != 0), guarded(t, mems[2], bot, edges&4 != 0))
			requireBits(t, "pool4 "+name, o, append(want, v[n4:]...))

			g := guarded(t, mems[0], v, edges&1 != 0)
			relu4(g)
			requireBits(t, "relu4 "+name, g, append(reluWant, v[n4:]...))
			g = guarded(t, mems[1], v, edges&2 != 0)
			leaky4(g, 0.1)
			requireBits(t, "leaky4 "+name, g, append(leakyWant, v[n4:]...))

			s := (*[4][4]float32)(unsafe.Pointer(&guarded(t, mems[0], make([]float32, 16), edges&1 != 0)[0]))
			fc4(s, guarded(t, mems[1], w, edges&2 != 0), guarded(t, mems[2], x, edges&4 != 0))
			if *s != fcWant {
				t.Fatalf("fc4 %s: chains %v, Go form %v", name, *s, fcWant)
			}
		}
	}
}
