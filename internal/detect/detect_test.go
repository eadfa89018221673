package detect

import (
	"fmt"
	"testing"

	"adsim/internal/dnn"
	"adsim/internal/img"
	"adsim/internal/scene"
	"adsim/internal/testutil"
)

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{InputSize: 0, ConfThreshold: 0.3, NMSThreshold: 0.5},
		{InputSize: 63, ConfThreshold: 0.3, NMSThreshold: 0.5},
		{InputSize: 64, ConfThreshold: -1, NMSThreshold: 0.5},
		{InputSize: 64, ConfThreshold: 0.3, NMSThreshold: 0},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config %+v should be rejected", i, cfg)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func frameWithBox(w, h int, box img.Rect) *img.Gray {
	f := img.NewGray(w, h)
	f.Fill(100)
	f.FillRect(box, 60)
	f.StrokeRect(box, 255)
	return f
}

func TestDetectSingleObject(t *testing.T) {
	d, _ := New(DefaultConfig())
	want := img.RectWH(40, 30, 40, 33) // vehicle-ish aspect 1.21
	f := frameWithBox(160, 120, want)
	dets := d.Detect(f)
	if len(dets) != 1 {
		t.Fatalf("got %d detections, want 1", len(dets))
	}
	if iou := dets[0].Box.IoU(want); iou < 0.8 {
		t.Errorf("detection IoU %.2f too low (box %v, want %v)", iou, dets[0].Box, want)
	}
	if dets[0].Class != scene.Vehicle {
		t.Errorf("class = %v, want vehicle", dets[0].Class)
	}
	if dets[0].Confidence < 0.5 {
		t.Errorf("clean outline confidence %.2f too low", dets[0].Confidence)
	}
}

func TestDetectMultipleObjects(t *testing.T) {
	d, _ := New(DefaultConfig())
	f := img.NewGray(320, 240)
	f.Fill(90)
	boxes := []img.Rect{
		img.RectWH(20, 50, 48, 40),  // vehicle
		img.RectWH(120, 40, 20, 65), // pedestrian
		img.RectWH(220, 60, 30, 30), // sign
	}
	for _, b := range boxes {
		f.FillRect(b, 50)
		f.StrokeRect(b, 255)
	}
	dets := d.Detect(f)
	if len(dets) != 3 {
		t.Fatalf("got %d detections, want 3", len(dets))
	}
	classes := map[scene.Class]int{}
	for _, det := range dets {
		classes[det.Class]++
	}
	if classes[scene.Vehicle] != 1 || classes[scene.Pedestrian] != 1 || classes[scene.TrafficSign] != 1 {
		t.Errorf("class histogram %v", classes)
	}
}

func TestDetectEmptyFrame(t *testing.T) {
	d, _ := New(DefaultConfig())
	f := img.NewGray(160, 120)
	f.Fill(128)
	if dets := d.Detect(f); len(dets) != 0 {
		t.Errorf("flat frame produced %d detections", len(dets))
	}
}

func TestDetectIgnoresTinyBlobs(t *testing.T) {
	cfg := DefaultConfig()
	d, _ := New(cfg)
	f := img.NewGray(160, 120)
	f.Set(10, 10, 255) // single bright pixel: below MinBoxPixels
	f.Set(11, 10, 255)
	if dets := d.Detect(f); len(dets) != 0 {
		t.Errorf("tiny blob produced %d detections", len(dets))
	}
}

func TestDetectOnSyntheticScene(t *testing.T) {
	cfg := scene.DefaultConfig(scene.Urban)
	cfg.Width, cfg.Height = 640, 360
	gen, err := scene.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, _ := New(DefaultConfig())

	matched, total := 0, 0
	for i := 0; i < 10; i++ {
		frame := gen.Step()
		dets := det.Detect(frame.Image)
		for _, truth := range frame.Truth {
			if truth.Box.Area() < 100 {
				continue // far objects may be sub-resolution
			}
			total++
			for _, d := range dets {
				if d.Box.IoU(truth.Box) > 0.4 {
					matched++
					break
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no sizable ground-truth objects in 10 frames")
	}
	recall := float64(matched) / float64(total)
	if recall < 0.6 {
		t.Errorf("recall %.2f (%d/%d) on synthetic scene too low", recall, matched, total)
	}
}

func TestTimingBreakdownRecorded(t *testing.T) {
	d, _ := New(DefaultConfig())
	f := frameWithBox(160, 120, img.RectWH(40, 30, 40, 33))
	_, tm := d.DetectTimed(f)
	if tm.DNN <= 0 {
		t.Error("DNN time not recorded")
	}
	if tm.Other <= 0 {
		t.Error("Other time not recorded")
	}
	if tm.Total() != tm.DNN+tm.Other {
		t.Error("Total inconsistent")
	}
	// The DNN forward dominates the reference pre/post path (paper: 99.4%).
	if tm.DNN < tm.Other {
		t.Errorf("DNN %v should dominate Other %v", tm.DNN, tm.Other)
	}
}

func TestRunDNNDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RunDNN = false
	d, _ := New(cfg)
	f := frameWithBox(160, 120, img.RectWH(40, 30, 40, 33))
	dets, tm := d.DetectTimed(f)
	if len(dets) != 1 {
		t.Fatalf("functional path broken without DNN: %d dets", len(dets))
	}
	if tm.DNN != 0 {
		t.Error("DNN time should be zero when disabled")
	}
}

func TestNMSSuppresses(t *testing.T) {
	a := Detection{Box: img.RectWH(0, 0, 10, 10), Confidence: 0.9}
	b := Detection{Box: img.RectWH(1, 1, 10, 10), Confidence: 0.8} // heavy overlap
	c := Detection{Box: img.RectWH(50, 50, 10, 10), Confidence: 0.7}
	out := NMS([]Detection{b, a, c}, 0.45)
	if len(out) != 2 {
		t.Fatalf("NMS kept %d, want 2", len(out))
	}
	if out[0].Confidence != 0.9 || out[1].Confidence != 0.7 {
		t.Errorf("NMS kept wrong boxes: %+v", out)
	}
}

func TestNMSKeepsDisjoint(t *testing.T) {
	dets := []Detection{
		{Box: img.RectWH(0, 0, 10, 10), Confidence: 0.5},
		{Box: img.RectWH(20, 0, 10, 10), Confidence: 0.6},
		{Box: img.RectWH(40, 0, 10, 10), Confidence: 0.7},
	}
	if out := NMS(dets, 0.45); len(out) != 3 {
		t.Errorf("NMS dropped disjoint boxes: kept %d", len(out))
	}
}

func TestNMSDoesNotMutateInput(t *testing.T) {
	dets := []Detection{
		{Box: img.RectWH(0, 0, 10, 10), Confidence: 0.5},
		{Box: img.RectWH(1, 1, 10, 10), Confidence: 0.9},
	}
	NMS(dets, 0.45)
	if dets[0].Confidence != 0.5 {
		t.Error("NMS reordered the caller's slice")
	}
}

func TestNMSEmpty(t *testing.T) {
	if out := NMS(nil, 0.5); len(out) != 0 {
		t.Error("NMS(nil) should be empty")
	}
}

func TestClassifyBox(t *testing.T) {
	cases := []struct {
		w, h float64
		want scene.Class
	}{
		{36, 30, scene.Vehicle},     // aspect 1.2
		{30, 30, scene.TrafficSign}, // aspect 1.0
		{12, 34, scene.Cyclist},     // aspect 0.35
		{10, 35, scene.Pedestrian},  // aspect 0.29
	}
	for _, c := range cases {
		got := ClassifyBox(img.RectWH(0, 0, c.w, c.h))
		if got != c.want {
			t.Errorf("ClassifyBox(%vx%v) = %v, want %v", c.w, c.h, got, c.want)
		}
	}
	if ClassifyBox(img.Rect{}) != scene.Vehicle {
		t.Error("degenerate box should default to vehicle")
	}
}

func TestPaperWorkload(t *testing.T) {
	n := PaperWorkload()
	if n.Name != "yolov2" {
		t.Errorf("paper workload = %q", n.Name)
	}
	if n.Cost().MACs < 1e10 {
		t.Error("paper workload suspiciously small")
	}
}

// Alloc gate (run by `make alloc-gate`): the detector's scratch keeps the
// warm DNN path's per-frame allocation overhead near the no-DNN floor. The
// proposal/NMS path allocates its result slices either way, so gate the
// delta rather than the absolute count. The executor's worker count is
// pinned per subtest, not read from the host, so the kernel fan-out is
// gated on a 1-CPU host too.
func TestAllocDetectSteadyState(t *testing.T) {
	f := frameWithBox(160, 120, img.RectWH(40, 30, 40, 33))
	allocDetectGate(t, 2, func(d *Detector) { d.Detect(f) })
}

// A ladder-rung change must reshape only the scratch input and keep the
// grow-only layer arena: alternating two warm rungs costs no more per call
// than staying on one. Replacing the whole scratch on a size mismatch
// re-grew the conv's padded input and both ping-pong slots on every
// alternation.
func TestAllocDetectRungAlternation(t *testing.T) {
	f := frameWithBox(160, 120, img.RectWH(40, 30, 40, 33))
	allocDetectGate(t, 4, func(d *Detector) {
		d.DetectBudgeted(f, BudgetOpts{InputSize: 96})
		d.DetectBudgeted(f, BudgetOpts{InputSize: 64})
	})
}

// allocDetectGate asserts that warm calls of run on a DNN detector allocate
// at most budget more than on a no-DNN one, at 1, 2 and 4 kernel workers.
// Budget: two per call of slack for timing bookkeeping (the measured delta
// is 0) — not the dozens of per-layer tensor allocations the scratch arena
// replaced.
func allocDetectGate(t *testing.T, budget float64, run func(*Detector)) {
	base := DefaultConfig()
	base.RunDNN = false
	dBase, _ := New(base)
	run(dBase)
	noDNN := testing.AllocsPerRun(10, func() { run(dBase) })
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Executor = dnn.NewExecutor(workers)
			dDNN, _ := New(cfg)
			run(dDNN)
			run(dDNN) // second visit: every rung run touches is now warm
			withDNN := testing.AllocsPerRun(10, func() { run(dDNN) })
			if delta := withDNN - noDNN; delta > budget {
				if testutil.RaceEnabled {
					// The race detector's instrumentation makes AllocsPerRun
					// noisy; the measured path still ran above for race
					// coverage, and `make alloc-gate` enforces the budget
					// without -race.
					t.Skipf("AllocsPerRun unreliable under -race: delta %.1f", delta)
				}
				t.Errorf("DNN adds %.1f allocs over the no-DNN floor (%.1f vs %.1f), want <= %.0f",
					delta, withDNN, noDNN, budget)
			}
		})
	}
}

// proposeOutlineBoxesRef is the proposal pass with fresh buffers on every
// call, as it ran before the reused scratch: the differential reference.
func proposeOutlineBoxesRef(frame *img.Gray, minArea float64) []Detection {
	const outlineMin = 250
	w, h := frame.W, frame.H
	visited := make([]bool, w*h)
	var out []Detection
	queue := make([]int, 0, 256)
	for start := 0; start < w*h; start++ {
		if visited[start] || frame.Pix[start] < outlineMin {
			continue
		}
		minX, minY := w, h
		maxX, maxY := 0, 0
		count := 0
		queue = append(queue[:0], start)
		visited[start] = true
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
					if !visited[nidx] && frame.Pix[nidx] >= outlineMin {
						visited[nidx] = true
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
	return out
}

// sceneFrames renders n urban frames at w×h.
func sceneFrames(t testing.TB, w, h, n int) []*img.Gray {
	cfg := scene.DefaultConfig(scene.Urban)
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

// One proposal scratch carried across frames of alternating sizes — larger,
// smaller, then larger again — must give exactly the fresh-buffer pass's
// proposals on every call: no visited flag, stack entry or proposal may
// leak from an earlier frame.
func TestProposalsMatchFreshBuffers(t *testing.T) {
	var frames []*img.Gray
	for _, sz := range [][2]int{{512, 256}, {160, 120}, {640, 360}, {384, 192}} {
		frames = append(frames, sceneFrames(t, sz[0], sz[1], 3)...)
	}
	frames = append(frames, frameWithBox(160, 120, img.RectWH(40, 30, 40, 33)), img.NewGray(512, 256))
	var sc proposalScratch
	for round := 0; round < 2; round++ {
		for i := range frames {
			f := frames[(i*5+round)%len(frames)]
			for _, minArea := range []float64{0, 30} {
				got := proposeOutlineBoxes(f, minArea, &sc)
				want := proposeOutlineBoxesRef(f, minArea)
				if len(got) != len(want) {
					t.Fatalf("frame %dx%d minArea %v: %d proposals, fresh buffers give %d", f.W, f.H, minArea, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("frame %dx%d minArea %v proposal %d: %+v, fresh buffers give %+v", f.W, f.H, minArea, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// Alloc gate (run by `make alloc-gate`): once warm on the largest frame, the
// proposal pass allocates nothing — not its visited map, its flood-fill
// stack or its proposal list — on frames of that size or smaller.
func TestAllocProposalsSteadyState(t *testing.T) {
	frames := append(sceneFrames(t, 512, 256, 4), sceneFrames(t, 384, 192, 2)...)
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

func BenchmarkDetectNative(b *testing.B) {
	d, _ := New(DefaultConfig())
	f := frameWithBox(640, 360, img.RectWH(100, 100, 80, 66))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect(f)
	}
}
