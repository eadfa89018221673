package detect

import (
	"fmt"
	"slices"
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

// NMS's sort is stable: detections of equal confidence keep their input
// order, and proposals capped at confidence 1 tie often.
func TestNMSStableOnTies(t *testing.T) {
	var dets []Detection
	for i := range 12 {
		dets = append(dets, Detection{Box: img.RectWH(float64(20*i), 0, 10, 10), Confidence: []float64{1, 0.5, 1, 0.7}[i%4]})
	}
	out := NMS(dets, 0.45)
	var want []Detection
	for _, conf := range []float64{1, 0.7, 0.5} {
		for _, d := range dets {
			if d.Confidence == conf {
				want = append(want, d)
			}
		}
	}
	if !slices.Equal(out, want) {
		t.Errorf("NMS order %+v, want %+v", out, want)
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

func BenchmarkDetectNative(b *testing.B) {
	d, _ := New(DefaultConfig())
	f := frameWithBox(640, 360, img.RectWH(100, 100, 80, 66))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect(f)
	}
}
