package track

import (
	"math/rand"
	"syscall"
	"testing"

	"adsim/internal/img"
)

// guardedPages maps three pages and makes the outer two inaccessible, so a
// slice placed flush against either edge of the middle page faults on any
// read past its end or before its start. The returned slice is the middle
// page.
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

// The SSE2 window routine must never read outside either slice: with the
// search and template pixels each flush against a guard page — last byte
// the last readable one, or first byte the first — every template width
// 1..33 runs at every offset of its search region. An over-read faults the
// test; the result must also equal the reference scan's.
func TestWindowSADStaysInsideGuardPages(t *testing.T) {
	sMem, tMem := guardedPages(t), guardedPages(t)
	place := func(mem []byte, src []uint8, atEnd bool) []uint8 {
		n := len(src)
		if atEnd {
			return mem[len(mem)-n : len(mem) : len(mem)]
		}
		return mem[:n:n]
	}
	rng := rand.New(rand.NewSource(5))
	for tw := 1; tw <= 33; tw++ {
		for _, th := range []int{1, 2, 15, 33} {
			for _, sw := range []int{tw, tw + 1, 40} {
				sh := th + 3
				search, tmpl := img.NewGray(sw, sh), img.NewGray(tw, th)
				rng.Read(search.Pix)
				rng.Read(tmpl.Pix)
				nx, ny := rng.Intn(sw-tw+1), rng.Intn(sh-th+1)
				wdx, wdy, wsad := matchTemplateRef(search, tmpl, nx, ny)
				for edges := 0; edges < 4; edges++ {
					gs := &img.Gray{W: sw, H: sh, Pix: place(sMem, search.Pix, edges&1 != 0)}
					gt := &img.Gray{W: tw, H: th, Pix: place(tMem, tmpl.Pix, edges&2 != 0)}
					copy(gs.Pix, search.Pix)
					copy(gt.Pix, tmpl.Pix)
					dx, dy, sad := matchTemplate(gs, gt, nx, ny)
					if dx != wdx || dy != wdy || sad != wsad {
						t.Fatalf("tmpl %dx%d search %dx%d edges %d: got (%d,%d,%d), reference (%d,%d,%d)",
							tw, th, sw, sh, edges, dx, dy, sad, wdx, wdy, wsad)
					}
				}
			}
		}
	}
}
