package detect

import (
	"adsim/internal/img"
)

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
	const outlineMin = 250
	w, h := frame.W, frame.H
	words := (w*h + 63) / 64
	if cap(sc.visited) < words {
		sc.visited = make([]uint64, words)
	}
	visited := sc.visited[:words]
	clear(visited)
	out := sc.out[:0]

	// BFS flood fill over 8-connected bright pixels.
	queue := sc.queue[:0]
	for start := 0; start < w*h; start++ {
		if frame.Pix[start] < outlineMin || visited[uint(start)/64]&(1<<(uint(start)%64)) != 0 {
			continue
		}
		minX, minY := w, h
		maxX, maxY := 0, 0
		count := 0
		queue = queue[:0]
		queue = append(queue, start)
		visited[uint(start)/64] |= 1 << (uint(start) % 64)
		for len(queue) > 0 {
			idx := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
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
						queue = append(queue, nidx)
					}
				}
			}
		}

		box := img.Rect{X0: float64(minX), Y0: float64(minY),
			X1: float64(maxX + 1), Y1: float64(maxY + 1)}
		if box.Area() < minArea {
			continue
		}
		perimeter := 2 * (box.W() + box.H())
		conf := float64(count) / perimeter
		if conf > 1 {
			conf = 1
		}
		out = append(out, Detection{
			Box:        box,
			Class:      ClassifyBox(box),
			Confidence: conf,
		})
	}
	sc.queue, sc.out = queue, out
	return out
}
