package detect

import (
	"encoding/binary"

	"adsim/internal/img"
)

// outlineMin is the least intensity that counts as an outline pixel.
const outlineMin = 250

// The seed scan's word test below is exact only for a threshold with its top
// bit set: a negative constant does not convert to uint, so an outlineMin
// under 128 fails to compile here.
const _ = uint(outlineMin - 128)

// anyOutline reports whether any byte of the eight in x is ≥ outlineMin. A
// byte b ≥ outlineMin ≥ 128 iff its top bit is set and its low seven bits
// are ≥ outlineMin − 128, i.e. (b & 0x7f) + (256 − outlineMin) ≥ 128. That
// sum is at most 127 + 128 = 255, so no byte carries into its neighbour and
// the test is exact for every byte at once (for 250:
// ((x & 0x7f…7f) + 0x06…06) & x & 0x80…80).
func anyOutline(x uint64) bool {
	const (
		low7s    = 0x7f7f7f7f7f7f7f7f
		high1s   = 0x8080808080808080
		carryAdd = (256 - outlineMin) * 0x0101010101010101
	)
	return ((x&low7s)+carryAdd)&x&high1s != 0
}

// proposalScratch is proposeOutlineBoxes' working set: the visited map (one
// bit per pixel, 16 KB at 512×256), the flood-fill stack and the proposal
// list. Every slice is grow-only: a call clears the visited words it uses
// and truncates the other two, so a warm call allocates nothing. The map is
// a bitset, not a []bool, because a retained buffer is live heap, which the
// GC target doubles: at 512×256 a []bool is 128 KB, and with it the solo
// workloads' peak RSS read about 0.6 MB higher than with the bitset.
type proposalScratch struct {
	visited []uint64
	queue   []int
	out     []Detection
}

// proposeOutlineBoxes is the reference proposal generator: it extracts
// connected components of saturated outline pixels (the synthetic renderer
// strokes every object at intensity 255, far above any background texture)
// and emits one candidate detection per component.
//
// Confidence is the fraction of the component's bounding-box perimeter that
// is covered by outline pixels: a clean unoccluded object scores near 1,
// partially occluded or clipped objects score lower — giving the confidence
// threshold and NMS real work to do.
//
// The result aliases sc.out and is valid until sc's next use.
func proposeOutlineBoxes(frame *img.Gray, minArea float64, sc *proposalScratch) []Detection {
	n := frame.W * frame.H
	words := (n + 63) / 64
	if cap(sc.visited) < words {
		sc.visited = make([]uint64, words)
	}
	visited := sc.visited[:words]
	clear(visited)
	out := sc.out[:0]

	// BFS flood fill over 8-connected bright pixels, seeded in pixel order.
	// The seed scan reads eight pixels at a time and skips a word with no
	// outline byte; a word with one, and the last w·h mod 8 pixels, take the
	// per-pixel test. Seeds are the same pixels in the same order as a
	// pixel-at-a-time scan, so the proposals are too.
	queue := sc.queue[:0]
	pix := frame.Pix[:n]
	for base := 0; base < n; base += 8 {
		if base+8 <= n && !anyOutline(binary.LittleEndian.Uint64(pix[base:])) {
			continue
		}
		for start := base; start < min(base+8, n); start++ {
			if pix[start] < outlineMin || visited[uint(start)/64]&(1<<(uint(start)%64)) != 0 {
				continue
			}
			proposal, ok := floodOutline(frame, start, minArea, visited, &queue)
			if ok {
				out = append(out, proposal)
			}
		}
	}
	sc.queue, sc.out = queue, out
	return out
}

// floodOutline flood-fills the outline component seeded at start (an
// unvisited outline pixel), marking it in visited with *queue as the stack,
// and returns its proposal; ok is false when the component's box is smaller
// than minArea.
func floodOutline(frame *img.Gray, start int, minArea float64, visited []uint64, queue *[]int) (d Detection, ok bool) {
	w, h := frame.W, frame.H
	minX, minY := w, h
	maxX, maxY := 0, 0
	count := 0
	q := append((*queue)[:0], start)
	visited[uint(start)/64] |= 1 << (uint(start) % 64)
	for len(q) > 0 {
		idx := q[len(q)-1]
		q = q[:len(q)-1]
		x, y := idx%w, idx/w
		count++
		if x < minX {
			minX = x
		}
		if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := x+dx, y+dy
				if nx < 0 || ny < 0 || nx >= w || ny >= h {
					continue
				}
				nidx := ny*w + nx
				if frame.Pix[nidx] >= outlineMin && visited[uint(nidx)/64]&(1<<(uint(nidx)%64)) == 0 {
					visited[uint(nidx)/64] |= 1 << (uint(nidx) % 64)
					q = append(q, nidx)
				}
			}
		}
	}
	*queue = q

	box := img.Rect{X0: float64(minX), Y0: float64(minY),
		X1: float64(maxX + 1), Y1: float64(maxY + 1)}
	if box.Area() < minArea {
		return Detection{}, false
	}
	perimeter := 2 * (box.W() + box.H())
	conf := float64(count) / perimeter
	if conf > 1 {
		conf = 1
	}
	return Detection{
		Box:        box,
		Class:      ClassifyBox(box),
		Confidence: conf,
	}, true
}
