package img

import (
	"bytes"
	"math/rand"
	"syscall"
	"testing"
)

// guardedPages maps three pages and makes the outer two inaccessible, so a
// slice placed flush against either edge of the middle page faults on any
// access past its end or before its start. The returned slice is the
// middle page.
func guardedPages(t *testing.T) []byte {
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
	return mem[page : 2*page : 2*page]
}

// The SSE2 blur routine must touch no byte outside its three source rows
// and its output row: with the source and the output pixels each flush
// against a guard page — last byte the last accessible one, or first byte
// the first — every width 1..70 runs at heights 3..5, so the first and
// last three-row rows sit on the image's edges. An over-read or over-write
// faults the test; the result must also equal the Go form's.
func TestBoxBlur3StaysInsideGuardPages(t *testing.T) {
	srcMem, dstMem := guardedPages(t), guardedPages(t)
	place := func(mem []byte, n int, atEnd bool) []uint8 {
		if atEnd {
			return mem[len(mem)-n : len(mem) : len(mem)]
		}
		return mem[:n:n]
	}
	rng := rand.New(rand.NewSource(7))
	for w := 1; w <= 70; w++ {
		for h := 3; h <= 5; h++ {
			g := randomGray(rng, w, h)
			want := blurGo(g)
			for edges := 0; edges < 4; edges++ {
				src := &Gray{W: w, H: h, Pix: place(srcMem, w*h, edges&1 != 0)}
				copy(src.Pix, g.Pix)
				dst := &Gray{W: w, H: h, Pix: place(dstMem, w*h, edges&2 != 0)}
				var ii Integral
				if got := src.BoxBlurInto(dst, &ii, 1); !bytes.Equal(got.Pix, want.Pix) {
					t.Fatalf("%dx%d edges %d: differs from the Go form", w, h, edges)
				}
			}
		}
	}
}
