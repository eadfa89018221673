package tensor

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats maps three pages and makes the outer two inaccessible, so
// a slice placed flush against either edge of the middle page faults on
// any access past its end or before its start. The returned slice is the
// middle page.
func guardedFloats(t *testing.T) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[:page], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	if err := syscall.Mprotect(mem[2*page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[page])), page/4)
}

// The register tile must touch nothing outside its operands' documented
// extents: with out, p, w and the bias each flush against a guard page —
// last element the last accessible one, or first element the first — and
// each exactly as long as gemm4x8 requires, every depth 0..13 runs over one
// to three tiles in rows up to three columns wider. An out-of-bounds read
// or write faults the test; the result must also equal the Go loop's.
func TestGemm4x8StaysInsideGuardPages(t *testing.T) {
	oMem, pMem, wMem, bMem := guardedFloats(t), guardedFloats(t), guardedFloats(t), guardedFloats(t)
	place := func(mem, src []float32, atEnd bool) []float32 {
		n := len(src)
		dst := mem[:n:n]
		if atEnd {
			dst = mem[len(mem)-n : len(mem) : len(mem)]
		}
		copy(dst, src)
		return dst
	}
	rng := rand.New(rand.NewSource(53))
	fill := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = float32(rng.NormFloat64())
		}
		return s
	}
	for depth := 0; depth <= 13; depth++ {
		for n := 1; n <= 3; n++ {
			for cols := 8 * n; cols <= 8*n+3; cols++ {
				p := fill(max(0, (depth-1)*cols+8*n))
				w := fill(4 * depth)
				var bias [4]float32
				copy(bias[:], fill(4))
				want := make([]float32, 3*cols+8*n)
				gemm4x8Go(want, p, w, &bias, depth, cols, n)
				for edges := 0; edges < 16; edges++ {
					gp := place(pMem, p, edges&1 != 0)
					gw := place(wMem, w, edges&2 != 0)
					gb := (*[4]float32)(place(bMem, bias[:], edges&4 != 0))
					out := place(oMem, make([]float32, len(want)), edges&8 != 0)
					gemm4x8(out, gp, gw, gb, depth, cols, n)
					for i := range want {
						if out[i] != want[i] {
							t.Fatalf("depth=%d n=%d cols=%d edges=%d: out[%d] = %v, Go loop %v",
								depth, n, cols, edges, i, out[i], want[i])
						}
					}
				}
			}
		}
	}
}
