package track

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"adsim/internal/dnn"
	"adsim/internal/img"
	"adsim/internal/scene"
	"adsim/internal/testutil"
)

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{PoolSize: 0, SearchScale: 2, TemplateSize: 16},
		{PoolSize: 4, SearchScale: 1, TemplateSize: 16},
		{PoolSize: 4, SearchScale: 2, TemplateSize: 2},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config %+v should be rejected", i, cfg)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestSpawnAndTableLimits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PoolSize = 2
	cfg.RunDNN = false
	e, _ := New(cfg)
	f := img.NewGray(100, 100)
	dets := []Detection{
		{Box: img.RectWH(0, 0, 10, 10)},
		{Box: img.RectWH(30, 0, 10, 10)},
		{Box: img.RectWH(60, 0, 10, 10)},
	}
	e.Step(f, dets)
	if e.ActiveCount() != 2 {
		t.Errorf("active = %d, want pool-limited 2", e.ActiveCount())
	}
	if e.IdleTrackers() != 0 {
		t.Errorf("idle = %d, want 0", e.IdleTrackers())
	}
}

func TestAssociationUpdatesTrack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RunDNN = false
	e, _ := New(cfg)
	f := img.NewGray(100, 100)
	e.Step(f, []Detection{{Box: img.RectWH(10, 10, 20, 20), Class: scene.Vehicle}})
	id := e.Tracks()[0].ID

	// Slightly moved detection should associate, not spawn.
	e.Step(f, []Detection{{Box: img.RectWH(14, 10, 20, 20), Class: scene.Vehicle}})
	if e.ActiveCount() != 1 {
		t.Fatalf("active = %d, want 1 (association failed)", e.ActiveCount())
	}
	tr := e.Tracks()[0]
	if tr.ID != id {
		t.Error("track identity changed on association")
	}
	if tr.VX <= 0 {
		t.Errorf("velocity VX = %v, want positive (moved right)", tr.VX)
	}
	if tr.Misses != 0 {
		t.Errorf("misses = %d after association", tr.Misses)
	}
}

func TestMissExpiryAtTenFrames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RunDNN = false
	e, _ := New(cfg)
	f := img.NewGray(100, 100)
	e.Step(f, []Detection{{Box: img.RectWH(10, 10, 20, 20)}})
	if e.ActiveCount() != 1 {
		t.Fatal("spawn failed")
	}
	// Miss for MissLimit-1 frames: still alive.
	for i := 0; i < MissLimit-1; i++ {
		e.Step(f, nil)
	}
	if e.ActiveCount() != 1 {
		t.Fatalf("track expired after %d misses, limit is %d", MissLimit-1, MissLimit)
	}
	// Tenth consecutive miss: expired.
	e.Step(f, nil)
	if e.ActiveCount() != 0 {
		t.Errorf("track not expired after %d misses", MissLimit)
	}
	if e.IdleTrackers() != cfg.PoolSize {
		t.Error("expired track did not return to idle pool")
	}
}

func TestMissCounterResets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RunDNN = false
	e, _ := New(cfg)
	f := img.NewGray(100, 100)
	det := []Detection{{Box: img.RectWH(10, 10, 20, 20)}}
	e.Step(f, det)
	for i := 0; i < 5; i++ {
		e.Step(f, nil)
	}
	e.Step(f, det) // re-detected: miss counter resets
	for i := 0; i < MissLimit-1; i++ {
		e.Step(f, nil)
	}
	if e.ActiveCount() != 1 {
		t.Error("miss counter did not reset on re-detection")
	}
}

// Regression for the cross-frame aliasing bug: Tracks() used to return the
// engine's live internal slice, so frame N's FrameResult.Tracks mutated
// retroactively when frame N+1 stepped the tracker. Snapshots must be
// immutable once handed out.
func TestTracksSnapshotImmuneToLaterSteps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RunDNN = false
	e, _ := New(cfg)

	x := 40
	frameN, _ := e.Step(movingSquareFrame(x, 40),
		[]Detection{{Box: img.RectWH(float64(x), 40, 24, 24)}})
	if len(frameN) != 1 {
		t.Fatal("spawn failed")
	}
	boxN := frameN[0].Box
	accessorN := e.Tracks()

	// Frame N+1: the object moved; the engine's live table must update,
	// but frame N's snapshots (both the Step return and the Tracks()
	// accessor) must hold their boxes.
	x += 8
	frameN1, _ := e.Step(movingSquareFrame(x, 40),
		[]Detection{{Box: img.RectWH(float64(x), 40, 24, 24)}})
	if frameN[0].Box != boxN {
		t.Errorf("frame N snapshot box mutated by frame N+1: %v -> %v", boxN, frameN[0].Box)
	}
	if accessorN[0].Box != boxN {
		t.Errorf("Tracks() snapshot box mutated by frame N+1: %v -> %v", boxN, accessorN[0].Box)
	}
	if frameN1[0].Box == boxN {
		t.Error("frame N+1 snapshot did not advance (object moved 8 px)")
	}
	// Mutating a snapshot must not corrupt the engine's table.
	frameN1[0].Box = img.RectWH(0, 0, 1, 1)
	if e.Tracks()[0].Box == frameN1[0].Box {
		t.Error("mutating a returned snapshot leaked into the engine table")
	}
}

// movingSquareFrame renders a textured square at (x,y) for tracking tests.
func movingSquareFrame(x, y int) *img.Gray {
	f := img.NewGray(200, 100)
	f.Fill(80)
	box := img.RectWH(float64(x), float64(y), 24, 24)
	f.FillRect(box, 180)
	f.StrokeRect(box, 255)
	f.FillRect(img.RectWH(float64(x)+6, float64(y)+6, 6, 6), 20) // asymmetric mark
	return f
}

func TestTemplateTrackingFollowsMotion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RunDNN = false
	e, _ := New(cfg)

	x := 40
	e.Step(movingSquareFrame(x, 40), []Detection{{Box: img.RectWH(float64(x), 40, 24, 24)}})
	// Move the square right 4 px/frame with NO further detections: the
	// template matcher must follow it for several frames.
	for i := 0; i < 5; i++ {
		x += 4
		e.Step(movingSquareFrame(x, 40), nil)
	}
	if e.ActiveCount() != 1 {
		t.Fatal("track lost")
	}
	tr := e.Tracks()[0]
	cx, _ := tr.Box.Center()
	wantCx := float64(x) + 12
	if diff := cx - wantCx; diff > 6 || diff < -6 {
		t.Errorf("tracked center x = %.1f, want ~%.1f", cx, wantCx)
	}
}

func TestTrackOnSyntheticScene(t *testing.T) {
	gen, err := scene.New(func() scene.Config {
		c := scene.DefaultConfig(scene.Highway)
		c.Width, c.Height = 640, 360
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.RunDNN = false
	e, _ := New(cfg)

	for i := 0; i < 20; i++ {
		f := gen.Step()
		var dets []Detection
		// Feed ground truth as detections every 5th frame; the tracker
		// must coast in between.
		if i%5 == 0 {
			for _, tr := range f.Truth {
				if tr.Box.Area() >= 100 {
					dets = append(dets, Detection{Box: tr.Box, Class: tr.Class})
				}
			}
		}
		e.Step(f.Image, dets)
	}
	if e.ActiveCount() == 0 {
		t.Error("no objects tracked on highway scene")
	}
}

func TestDNNTimingDominates(t *testing.T) {
	e, _ := New(DefaultConfig())
	f0 := movingSquareFrame(40, 40)
	e.Step(f0, []Detection{{Box: img.RectWH(40, 40, 24, 24)}})
	_, tm := e.Step(movingSquareFrame(44, 40), nil)
	if tm.DNN <= 0 {
		t.Fatal("DNN time not recorded")
	}
	if tm.Total() != tm.DNN+tm.Other {
		t.Error("Total inconsistent")
	}
}

func TestPaperWorkloadProfile(t *testing.T) {
	c := PaperWorkload()
	// GOTURN at 227x227: FC-heavy. Head weights must dominate (EIE's
	// motivation); total weight bytes in the hundreds of MB.
	if c.FCMACs <= 0 || c.ConvMACs <= 0 {
		t.Fatal("missing MAC split")
	}
	if c.WeightBytes < 100e6 {
		t.Errorf("GOTURN weights = %d bytes, expected >100MB (FC-dominated)", c.WeightBytes)
	}
}

func TestMatchTemplateExact(t *testing.T) {
	search := img.NewGray(20, 20)
	for i := range search.Pix {
		search.Pix[i] = uint8(i * 7 % 256)
	}
	tmpl := search.Crop(img.RectWH(5, 8, 6, 6))
	dx, dy, sad := matchTemplate(search, tmpl, 0, 0)
	if dx != 5 || dy != 8 {
		t.Errorf("match at (%d,%d), want (5,8)", dx, dy)
	}
	if sad != 0 {
		t.Errorf("exact match SAD = %d, want 0", sad)
	}
}

// matchTemplateRef is the per-element SAD scan matchTemplate replaced: the
// differential reference its (dx, dy, sad) is held to exactly.
func matchTemplateRef(search, tmpl *img.Gray, nx, ny int) (dx, dy int, best int64) {
	bestSAD := int64(1) << 62
	bestDist := int64(1) << 62
	maxY := search.H - tmpl.H
	maxX := search.W - tmpl.W
	if maxY < 0 || maxX < 0 {
		return 0, 0, bestSAD
	}
	for oy := 0; oy <= maxY; oy++ {
		for ox := 0; ox <= maxX; ox++ {
			var sad int64
			for ty := 0; ty < tmpl.H; ty++ {
				srow := (oy+ty)*search.W + ox
				trow := ty * tmpl.W
				for tx := 0; tx < tmpl.W; tx++ {
					d := int64(search.Pix[srow+tx]) - int64(tmpl.Pix[trow+tx])
					if d < 0 {
						d = -d
					}
					sad += d
				}
				if sad > bestSAD {
					break
				}
			}
			ddx, ddy := int64(ox-nx), int64(oy-ny)
			dist := ddx*ddx + ddy*ddy
			if sad < bestSAD || (sad == bestSAD && dist < bestDist) {
				bestSAD, bestDist = sad, dist
				dx, dy = ox, oy
			}
		}
	}
	return dx, dy, bestSAD
}

// matchTemplate must return exactly the reference scan's (dx, dy, sad) at
// the tracker's three template scales: on random pixels, on constant and
// two-level images where every offset ties and only the zero-motion
// tie-break decides, and on a template cut from the search image.
func TestMatchTemplateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fills := []struct {
		name string
		fill func(g *img.Gray)
	}{
		{"random", func(g *img.Gray) { rng.Read(g.Pix) }},
		{"constant", func(g *img.Gray) { g.Fill(uint8(rng.Intn(256))) }},
		{"two-level", func(g *img.Gray) {
			for i := range g.Pix {
				g.Pix[i] = uint8(rng.Intn(2)) * 255
			}
		}},
		{"stripes", func(g *img.Gray) {
			for i := range g.Pix {
				g.Pix[i] = uint8(i%g.W%3) * 60
			}
		}},
	}
	check := func(name string, search, tmpl *img.Gray, nx, ny int) {
		t.Helper()
		dx, dy, sad := matchTemplate(search, tmpl, nx, ny)
		wdx, wdy, wsad := matchTemplateRef(search, tmpl, nx, ny)
		if dx != wdx || dy != wdy || sad != wsad {
			t.Fatalf("%s: search %dx%d tmpl %dx%d nominal (%d,%d): got (%d,%d,%d), reference (%d,%d,%d)",
				name, search.W, search.H, tmpl.W, tmpl.H, nx, ny, dx, dy, sad, wdx, wdy, wsad)
		}
	}
	const ss = 32
	for _, f := range fills {
		for _, ts := range []int{16, 17, 15} { // DefaultConfig's TemplateSize at scales 1, 1.08, 1/1.08
			for trial := 0; trial < 20; trial++ {
				search, tmpl := img.NewGray(ss, ss), img.NewGray(ts, ts)
				f.fill(search)
				f.fill(tmpl)
				if trial%4 == 3 {
					tmpl = search.Crop(img.RectWH(float64(rng.Intn(ss-ts+1)), float64(rng.Intn(ss-ts+1)), float64(ts), float64(ts)))
				}
				check(fmt.Sprintf("%s trial %d", f.name, trial), search, tmpl, rng.Intn(ss-ts+1), rng.Intn(ss-ts+1))
			}
		}
	}

	// Every template width and height 1..33 (every whole-chunk count and
	// every w%16 tail) in search regions of 31, 32, 33 and 40 pixels. The
	// pixel slices have cap == len, or sit in a longer buffer of 255s, so a
	// read past len would show.
	for _, ss := range []int{31, 32, 33, 40} {
		for tw := 1; tw <= 33 && tw <= ss; tw++ {
			for th := 1; th <= 33 && th <= ss; th++ {
				search, tmpl := img.NewGray(ss, ss), img.NewGray(tw, th)
				rng.Read(search.Pix)
				rng.Read(tmpl.Pix)
				if (tw+th)%2 == 0 {
					search.Pix = search.Pix[:len(search.Pix):len(search.Pix)]
					tmpl.Pix = tmpl.Pix[:len(tmpl.Pix):len(tmpl.Pix)]
				} else {
					search.Pix = padded(search.Pix, 255)
					tmpl.Pix = padded(tmpl.Pix, 255)
				}
				check("sizes", search, tmpl, rng.Intn(ss-tw+1), rng.Intn(ss-th+1))
			}
		}
	}

	// All-0 against all-255: every byte differs by the maximum, every
	// offset ties at 255·w·h, and only the zero-motion tie-break decides.
	for tw := 1; tw <= 33; tw++ {
		for _, levels := range [][2]uint8{{0, 255}, {255, 0}} {
			search, tmpl := img.NewGray(40, 33), img.NewGray(tw, 34-tw)
			search.Fill(levels[0])
			tmpl.Fill(levels[1])
			check("extremes", search, tmpl, rng.Intn(40-tw+1), rng.Intn(tw))
		}
	}
}

// padded returns pix's bytes at the start of a buffer with spare capacity
// filled with junk; len stays len(pix).
func padded(pix []uint8, junk uint8) []uint8 {
	buf := make([]uint8, len(pix)+64)
	for i := range buf {
		buf[i] = junk
	}
	return buf[:copy(buf, pix)]
}

// windowSAD must equal windowSADGo's full sum for every width 1..33 and
// honour the bound contract: above bound exactly when the full SAD is. The
// slices are exactly (h−1)·stride + w and w·h bytes and sit at every offset
// of a larger buffer, so each of the routine's tail loads — backward,
// forward and byte by byte (slices under 32 bytes) — is exercised at the
// edges of its slice.
func TestWindowSADMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const full = int64(1) << 62
	for w := 1; w <= 33; w++ {
		for _, h := range []int{1, 2, 3, 5, 17} {
			for _, stride := range []int{w, w + 1, w + 15, 40} {
				sbuf, tbuf := make([]uint8, (h-1)*stride+w+40), make([]uint8, w*h+40)
				rng.Read(sbuf)
				rng.Read(tbuf)
				for off := 0; off <= 20; off += 5 {
					s := sbuf[off : off+(h-1)*stride+w]
					tp := tbuf[40-off : 40-off+w*h]
					want := windowSADGo(s, tp, stride, w, h, full)
					if got := windowSAD(s, tp, stride, w, h, full); got != want {
						t.Fatalf("w=%d h=%d stride=%d off=%d: windowSAD %d, Go loop %d", w, h, stride, off, got, want)
					}
					bound := rng.Int63n(want + 2)
					got := windowSAD(s, tp, stride, w, h, bound)
					if (got > bound) != (want > bound) || (want <= bound && got != want) {
						t.Fatalf("w=%d h=%d stride=%d off=%d bound=%d: windowSAD %d, full SAD %d",
							w, h, stride, off, bound, got, want)
					}
				}
			}
		}
	}
}

// FuzzMatchTemplate holds matchTemplate to the per-element reference scan
// on random sizes (search up to 48×48, template up to 34×34) and bytes.
func FuzzMatchTemplate(f *testing.F) {
	f.Add([]byte{0, 255, 7, 9}, uint8(31), uint8(31), uint8(16), uint8(16), uint8(8), uint8(8))
	f.Add([]byte{1, 2, 3}, uint8(32), uint8(32), uint8(16), uint8(14), uint8(1), uint8(2))
	f.Add([]byte{200}, uint8(39), uint8(40), uint8(32), uint8(33), uint8(0), uint8(3))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, pix []byte, sw, sh, tw, th, nx, ny uint8) {
		search := img.NewGray(1+int(sw)%48, 1+int(sh)%48)
		tmpl := img.NewGray(1+int(tw)%34, 1+int(th)%34)
		if len(pix) > 0 {
			for i := range search.Pix {
				search.Pix[i] = pix[i%len(pix)]
			}
			for i := range tmpl.Pix {
				tmpl.Pix[i] = pix[(i*7+3)%len(pix)]
			}
		}
		mx, my := max(search.W-tmpl.W, 0), max(search.H-tmpl.H, 0)
		x, y := int(nx)%(mx+1), int(ny)%(my+1)
		dx, dy, sad := matchTemplate(search, tmpl, x, y)
		wdx, wdy, wsad := matchTemplateRef(search, tmpl, x, y)
		if dx != wdx || dy != wdy || sad != wsad {
			t.Fatalf("search %dx%d tmpl %dx%d nominal (%d,%d): got (%d,%d,%d), reference (%d,%d,%d)",
				search.W, search.H, tmpl.W, tmpl.H, x, y, dx, dy, sad, wdx, wdy, wsad)
		}
	})
}

// BenchmarkMatchTemplate times one tracked object's functional path per
// frame: the three scale candidates (16, 17 and 15 pixels) scanned over the
// 32×32 search region, on crops of a rendered highway scene cut and resized
// the way propagate cuts them.
func BenchmarkMatchTemplate(b *testing.B) {
	gen, err := scene.New(func() scene.Config {
		c := scene.DefaultConfig(scene.Highway)
		c.Width, c.Height = 640, 360
		return c
	}())
	if err != nil {
		b.Fatal(err)
	}
	prev, cur := gen.Step(), gen.Step()
	var box img.Rect
	for _, tr := range prev.Truth {
		if tr.Box.Area() > box.Area() {
			box = tr.Box
		}
	}
	if box.Area() < 100 {
		b.Fatal("no sizable object in the scene's first frame")
	}
	cfg := DefaultConfig()
	ts := cfg.TemplateSize
	ss := int(float64(ts) * cfg.SearchScale)
	target := prev.Image.Crop(box)
	search := cur.Image.Crop(box.Scale(cfg.SearchScale)).Resize(ss, ss)
	var tmpls []*img.Gray
	for _, scale := range [...]float64{1.0, 1.08, 1.0 / 1.08} {
		sts := int(math.Round(float64(ts) * scale))
		tmpls = append(tmpls, target.Resize(sts, sts))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tm := range tmpls {
			nominal := (ss - tm.W) / 2
			_, _, sad := matchTemplate(search, tm, nominal, nominal)
			sinkSAD += sad
		}
	}
}

// sinkSAD keeps BenchmarkMatchTemplate's calls from being optimized away.
var sinkSAD int64

func TestMatchTemplateOversizedTemplate(t *testing.T) {
	search := img.NewGray(5, 5)
	tmpl := img.NewGray(10, 10)
	dx, dy, _ := matchTemplate(search, tmpl, 0, 0)
	if dx != 0 || dy != 0 {
		t.Error("oversized template should return origin")
	}
}

// squaresFrame renders eight textured squares for multi-track tests, each
// moving one pixel per step along its own diagonal, and returns their boxes.
func squaresFrame(step int) (*img.Gray, []img.Rect) {
	f := img.NewGray(320, 160)
	f.Fill(80)
	boxes := make([]img.Rect, 8)
	for k := range boxes {
		x := 10 + 75*(k%4) + step*(k%3-1)
		y := 20 + 70*(k/4) + step*(k%2*2-1)
		box := img.RectWH(float64(x), float64(y), 20, 20)
		f.FillRect(box, uint8(140+10*k))
		f.StrokeRect(box, 255)
		f.FillRect(img.RectWH(float64(x+2+2*k%7), float64(y+3+k%5), 5, 5), 20) // per-square mark
		boxes[k] = box
	}
	return f, boxes
}

// asDetections wraps boxes as class-less detections.
func asDetections(boxes []img.Rect) []Detection {
	dets := make([]Detection, len(boxes))
	for i, b := range boxes {
		dets[i] = Detection{Box: b}
	}
	return dets
}

// Step's result must not depend on how many workers claim the tracks or
// which worker's scratch a track lands on: a DNN-on sequence with eight
// live tracks, detections every fifth step and coasting in between, gives
// identical snapshots and DNN digests at executor workers 1, 2, 3 and 16.
// Under -race it is also the gate on the workers' scratch ownership.
func TestStepBitwiseAcrossWorkers(t *testing.T) {
	type stepOut struct {
		tracks []Track
		digest uint64
	}
	run := func(workers int) []stepOut {
		cfg := DefaultConfig()
		cfg.Executor = dnn.NewExecutor(workers)
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var outs []stepOut
		for step := 0; step < 24; step++ {
			f, boxes := squaresFrame(step)
			var dets []Detection
			if step%5 == 0 {
				dets = asDetections(boxes)
			}
			snap, tm := e.Step(f, dets)
			if len(snap) < 6 {
				t.Fatalf("workers=%d step %d: %d live tracks, want >= 6", workers, step, len(snap))
			}
			o := stepOut{digest: tm.DNNDigest}
			for _, tr := range snap {
				o.tracks = append(o.tracks, *tr)
			}
			outs = append(outs, o)
		}
		return outs
	}
	want := run(1)
	if want[len(want)-1].digest == 0 {
		t.Fatal("no DNN digest: the tracker DNN never ran")
	}
	for _, workers := range []int{2, 3, 16} {
		got := run(workers)
		for step := range want {
			if got[step].digest != want[step].digest {
				t.Fatalf("workers=%d step %d: DNN digest %#x, want %#x", workers, step, got[step].digest, want[step].digest)
			}
			if !slices.Equal(got[step].tracks, want[step].tracks) {
				t.Fatalf("workers=%d step %d: tracks %+v, want %+v", workers, step, got[step].tracks, want[step].tracks)
			}
		}
	}
}

// Alloc gate (run by `make alloc-gate`): the warm single-track DNN step
// must stay within a small budget over the no-DNN floor (timing
// bookkeeping; the measured delta is 0), not the per-layer tensor churn the
// arena replaced; and a warm eight-track step allocates its snapshot (one
// slice, one copy per track) plus two (the detection-used flags and the
// fan-out's callback), whatever the track count. The executor's worker count is
// pinned per subtest, not read from the host, so the fan-out is gated on a
// 1-CPU host too.
func TestAllocTrackSteadyState(t *testing.T) {
	step := func(e *Engine) {
		e.Step(movingSquareFrame(44, 40), nil)
	}
	mk := func(runDNN bool, workers int) *Engine {
		cfg := DefaultConfig()
		cfg.RunDNN = runDNN
		cfg.Executor = dnn.NewExecutor(workers)
		e, _ := New(cfg)
		e.Step(movingSquareFrame(40, 40), []Detection{{Box: img.RectWH(40, 40, 24, 24)}})
		step(e) // warm the scratch and template buffers
		return e
	}
	eBase := mk(false, 1)
	noDNN := testing.AllocsPerRun(10, func() { step(eBase) })
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eDNN := mk(true, workers)
			if testutil.RaceEnabled {
				t.Skip("AllocsPerRun is unreliable under -race; make alloc-gate runs this uninstrumented")
			}
			withDNN := testing.AllocsPerRun(10, func() { step(eDNN) })
			if delta := withDNN - noDNN; delta > 2 {
				t.Errorf("DNN adds %.1f allocs/step over the no-DNN floor (%.1f vs %.1f), want <= 2",
					delta, withDNN, noDNN)
			}
		})
		t.Run(fmt.Sprintf("tracks=8/workers=%d", workers), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Executor = dnn.NewExecutor(workers)
			e, _ := New(cfg)
			f, boxes := squaresFrame(0)
			dets := asDetections(boxes)
			e.Step(f, dets)
			e.Step(f, dets) // warm every worker's scratch
			if testutil.RaceEnabled {
				t.Skip("AllocsPerRun is unreliable under -race; make alloc-gate runs this uninstrumented")
			}
			k := e.ActiveCount()
			if k != 8 {
				t.Fatalf("%d live tracks, want 8", k)
			}
			allocs := testing.AllocsPerRun(10, func() { e.Step(f, dets) })
			if allocs > float64(k+1+2) {
				t.Errorf("an %d-track step allocates %.1f, want <= %d (the snapshot's %d plus 2)",
					k, allocs, k+1+2, k+1)
			}
		})
	}
}

func BenchmarkStepNoDNN(b *testing.B) {
	cfg := DefaultConfig()
	cfg.RunDNN = false
	e, _ := New(cfg)
	f := movingSquareFrame(40, 40)
	e.Step(f, []Detection{{Box: img.RectWH(40, 40, 24, 24)}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step(f, nil)
	}
}

// growingSquareFrame renders a textured square centered at (cx,cy) with the
// given side length.
func growingSquareFrame(cx, cy, side int) *img.Gray {
	f := img.NewGray(200, 160)
	f.Fill(80)
	box := img.RectCenter(float64(cx), float64(cy), float64(side), float64(side))
	f.FillRect(box, 180)
	f.StrokeRect(box, 255)
	f.FillRect(img.RectCenter(float64(cx), float64(cy), float64(side)/3, float64(side)/3), 20)
	return f
}

func TestScaleAdaptiveTracking(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RunDNN = false
	e, _ := New(cfg)

	side := 24
	e.Step(growingSquareFrame(100, 80, side),
		[]Detection{{Box: img.RectCenter(100, 80, float64(side), float64(side))}})
	// The object grows ~8% per frame (approaching) with no detections:
	// the scale-aware matcher must inflate the box.
	for i := 0; i < 6; i++ {
		side = int(float64(side) * 1.09)
		e.Step(growingSquareFrame(100, 80, side), nil)
	}
	if e.ActiveCount() != 1 {
		t.Fatal("track lost")
	}
	tr := e.Tracks()[0]
	if tr.Box.W() <= 26 {
		t.Errorf("box width %.1f did not grow with the object (now %d px)", tr.Box.W(), side)
	}
	truth := img.RectCenter(100, 80, float64(side), float64(side))
	if iou := tr.Box.IoU(truth); iou < 0.5 {
		t.Errorf("IoU with grown object = %.2f", iou)
	}
}

func TestStableScaleNoDrift(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RunDNN = false
	e, _ := New(cfg)
	e.Step(growingSquareFrame(100, 80, 24),
		[]Detection{{Box: img.RectCenter(100, 80, 24, 24)}})
	// Constant-size object: the scale hysteresis must hold the box size.
	for i := 0; i < 8; i++ {
		e.Step(growingSquareFrame(100, 80, 24), nil)
	}
	tr := e.Tracks()[0]
	if tr.Box.W() < 18 || tr.Box.W() > 31 {
		t.Errorf("box width drifted to %.1f on a constant-size object", tr.Box.W())
	}
}

func TestDegenerateBoxHeldInPlace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RunDNN = false
	e, _ := New(cfg)
	f := movingSquareFrame(40, 40)
	e.Step(f, []Detection{{Box: img.RectWH(10, 10, 2, 0.5)}}) // degenerate spawn
	before := e.Tracks()[0].Box
	for i := 0; i < 3; i++ {
		e.Step(movingSquareFrame(40+4*i, 40), nil) // must not panic
	}
	if e.ActiveCount() == 1 && e.Tracks()[0].Box != before {
		t.Error("degenerate box should be held in place")
	}
}

// Property: the tracked-object table never exceeds the pool size and never
// holds degenerate or non-finite boxes, whatever detections arrive.
func TestTableInvariantsProperty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PoolSize = 4
	cfg.RunDNN = false
	e, _ := New(cfg)
	f := movingSquareFrame(40, 40)
	prop := func(xs, ys, ws, hs [3]uint8) bool {
		var dets []Detection
		for i := 0; i < 3; i++ {
			dets = append(dets, Detection{Box: img.RectWH(
				float64(xs[i]), float64(ys[i]),
				float64(ws[i]%60), float64(hs[i]%60))})
		}
		e.Step(f, dets)
		if e.ActiveCount() > cfg.PoolSize {
			return false
		}
		for _, tr := range e.Tracks() {
			if math.IsNaN(tr.Box.X0) || math.IsInf(tr.Box.X0, 0) ||
				math.IsNaN(tr.VX) || math.IsInf(tr.VY, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestKalmanConvergesToConstantVelocity(t *testing.T) {
	var f boxFilter
	// Object moving at (3, -1) px/frame, exact measurements.
	for i := 0; i < 30; i++ {
		f.observe(float64(i*3), float64(100-i))
	}
	_, _, vx, vy := f.observe(90, 70)
	if math.Abs(vx-3) > 0.3 || math.Abs(vy-(-1)) > 0.3 {
		t.Errorf("KF velocity (%.2f, %.2f), want (3, -1)", vx, vy)
	}
}

func TestKalmanSmoothsNoise(t *testing.T) {
	// Alternating ±2 px measurement noise on a static object: the
	// filtered velocity must stay far below the raw frame-diff (±4).
	var f boxFilter
	f.observe(100, 100)
	worst := 0.0
	for i := 0; i < 40; i++ {
		noise := 2.0
		if i%2 == 1 {
			noise = -2.0
		}
		_, _, vx, _ := f.observe(100+noise, 100)
		if i > 10 && math.Abs(vx) > worst {
			worst = math.Abs(vx)
		}
	}
	if worst > 1.5 {
		t.Errorf("steady-state KF velocity |%.2f| under ±2px noise; raw diff would be 4", worst)
	}
}

func TestTrackVelocitySmoothed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RunDNN = false
	e, _ := New(cfg)
	// Detections every frame, center moving +4 px/frame with ±1 jitter.
	x := 40.0
	for i := 0; i < 15; i++ {
		jitter := 1.0
		if i%2 == 1 {
			jitter = -1.0
		}
		e.Step(movingSquareFrame(int(x), 40),
			[]Detection{{Box: img.RectCenter(x+12+jitter, 52, 24, 24)}})
		x += 4
	}
	tr := e.Tracks()[0]
	if math.Abs(tr.VX-4) > 1.5 {
		t.Errorf("smoothed VX = %.2f, want ~4", tr.VX)
	}
}
