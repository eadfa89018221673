package detect

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"adsim/internal/img"
	"adsim/internal/scene"
	"adsim/internal/testutil"
)

// proposeOutlineBoxesRef is the proposal pass with a pixel-at-a-time seed
// scan: the differential reference for the word-at-a-time scan. Called with
// a fresh scratch it is also the fresh-buffer reference for scratch reuse.
func proposeOutlineBoxesRef(frame *img.Gray, minArea float64, sc *proposalScratch) []Detection {
	w, h := frame.W, frame.H
	words := (w*h + 63) / 64
	if cap(sc.visited) < words {
		sc.visited = make([]uint64, words)
	}
	visited := sc.visited[:words]
	clear(visited)
	out := sc.out[:0]
	queue := sc.queue[:0]
	for start := 0; start < w*h; start++ {
		if frame.Pix[start] < outlineMin || visited[uint(start)/64]&(1<<(uint(start)%64)) != 0 {
			continue
		}
		minX, minY := w, h
		maxX, maxY := 0, 0
		count := 0
		queue = append(queue[:0], start)
		visited[uint(start)/64] |= 1 << (uint(start) % 64)
		for len(queue) > 0 {
			idx := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			x, y := idx%w, idx/w
			count++
			minX, maxX = min(minX, x), max(maxX, x)
			minY, maxY = min(minY, y), max(maxY, y)
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
		conf := min(float64(count)/(2*(box.W()+box.H())), 1)
		out = append(out, Detection{Box: box, Class: ClassifyBox(box), Confidence: conf})
	}
	sc.queue, sc.out = queue, out
	return out
}

// sceneFrames renders n frames of the given world at w×h.
func sceneFrames(t testing.TB, kind scene.Kind, w, h, n int) []*img.Gray {
	cfg := scene.DefaultConfig(kind)
	cfg.Width, cfg.Height = w, h
	gen, err := scene.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*img.Gray, n)
	for i := range out {
		out[i] = gen.Step().Image
	}
	return out
}

// checkProposals fails t unless the word-at-a-time pass on scratch sc gives
// exactly the pixel-at-a-time pass's proposals on fresh buffers.
func checkProposals(t *testing.T, f *img.Gray, minArea float64, sc *proposalScratch) {
	t.Helper()
	got := proposeOutlineBoxes(f, minArea, sc)
	want := proposeOutlineBoxesRef(f, minArea, &proposalScratch{})
	if !slices.Equal(got, want) {
		t.Fatalf("frame %dx%d minArea %v: proposals %+v, the per-pixel scan on fresh buffers gives %+v",
			f.W, f.H, minArea, got, want)
	}
}

// anyOutline agrees with the per-byte test for every byte value in every
// lane, beside neighbours just under the threshold, just over the top-bit
// boundary and at the values whose low seven bits sit at the carry edge.
func TestAnyOutlineEveryByte(t *testing.T) {
	for _, fill := range []uint8{0, 0x7f, 0x80, 122, outlineMin - 1} {
		for lane := 0; lane < 8; lane++ {
			for b := 0; b < 256; b++ {
				var x uint64
				for i := 0; i < 8; i++ {
					v := uint64(fill)
					if i == lane {
						v = uint64(b)
					}
					x |= v << (8 * i)
				}
				if got, want := anyOutline(x), b >= outlineMin; got != want {
					t.Fatalf("fill %d, byte %d in lane %d: anyOutline %v, want %v", fill, b, lane, got, want)
				}
			}
		}
	}
}

// One proposal scratch carried across frames of alternating sizes — larger,
// smaller, then larger again — must give exactly the fresh-buffer pass's
// proposals on every call: no visited flag, stack entry or proposal may
// leak from an earlier frame. The frames include 60-frame highway and urban
// drives, on which the word-at-a-time scan must find exactly the per-pixel
// scan's proposals.
func TestProposalsMatchFreshBuffers(t *testing.T) {
	var frames []*img.Gray
	for _, sz := range [][2]int{{512, 256}, {160, 120}, {640, 360}, {384, 192}} {
		frames = append(frames, sceneFrames(t, scene.Urban, sz[0], sz[1], 3)...)
	}
	for _, kind := range []scene.Kind{scene.Highway, scene.Urban} {
		frames = append(frames, sceneFrames(t, kind, 512, 256, 60)...)
	}
	frames = append(frames, frameWithBox(160, 120, img.RectWH(40, 30, 40, 33)), img.NewGray(512, 256))
	var sc proposalScratch
	for round := 0; round < 2; round++ {
		for i := range frames {
			f := frames[(i*5+round)%len(frames)]
			for _, minArea := range []float64{0, 30} {
				checkProposals(t, f, minArea, &sc)
			}
		}
	}
}

// FuzzProposeOutlineBoxes checks the word-at-a-time scan against the
// per-pixel one on random frames of 1–70 × 1–40 pixels (so most widths are
// not a multiple of 8, and 1-row and 1-column frames occur), dense in the
// bytes around the threshold and the SWAR test's carry edge.
// `make fuzz-smoke` runs it for 10s.
func FuzzProposeOutlineBoxes(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(9), uint8(40))
	f.Add(int64(2), uint8(0), uint8(30), uint8(200))
	f.Add(int64(3), uint8(69), uint8(0), uint8(128))
	f.Add(int64(4), uint8(7), uint8(7), uint8(255))
	edge := []uint8{outlineMin - 1, outlineMin, outlineMin + 1, 255, 122, 0x7f, 0x80}
	var sc proposalScratch
	f.Fuzz(func(t *testing.T, seed int64, w, h, density uint8) {
		W, H := 1+int(w)%70, 1+int(h)%40
		rng := rand.New(rand.NewSource(seed))
		g := img.NewGray(W, H)
		for i := range g.Pix {
			if rng.Intn(256) < int(density) {
				g.Pix[i] = edge[rng.Intn(len(edge))]
			} else {
				g.Pix[i] = uint8(rng.Intn(256))
			}
		}
		checkProposals(t, g, float64(rng.Intn(4)), &sc)
	})
}

// Alloc gate (run by `make alloc-gate`): once warm on the largest frame, the
// proposal pass allocates nothing — not its visited map, its flood-fill
// stack or its proposal list — on frames of that size or smaller.
func TestAllocProposalsSteadyState(t *testing.T) {
	frames := append(sceneFrames(t, scene.Urban, 512, 256, 4), sceneFrames(t, scene.Urban, 384, 192, 2)...)
	var sc proposalScratch
	for _, f := range frames {
		proposeOutlineBoxes(f, 30, &sc)
	}
	if testutil.RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race; make alloc-gate runs this uninstrumented")
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		proposeOutlineBoxes(frames[i%len(frames)], 30, &sc)
		i++
	})
	if allocs != 0 {
		t.Errorf("warm proposal pass allocates %.1f objects per call, want 0", allocs)
	}
}

// BenchmarkProposals times the word-at-a-time scan (fast) beside the
// per-pixel one (ref), both on a warm scratch, on the 512×256 highway and
// urban frames DET proposes on.
func BenchmarkProposals(b *testing.B) {
	for _, kind := range []scene.Kind{scene.Highway, scene.Urban} {
		frames := sceneFrames(b, kind, 512, 256, 8)
		for _, impl := range []struct {
			name string
			fn   func(*img.Gray, float64, *proposalScratch) []Detection
		}{
			{"fast", proposeOutlineBoxes},
			{"ref", proposeOutlineBoxesRef},
		} {
			b.Run(fmt.Sprintf("%v=512x256/%s", kind, impl.name), func(b *testing.B) {
				var sc proposalScratch
				for i := 0; i < b.N; i++ {
					impl.fn(frames[i%len(frames)], 30, &sc)
				}
			})
		}
	}
}
