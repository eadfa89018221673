package slam

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adsim/internal/img"
	"adsim/internal/scene"
)

// checkerFrame builds a frame with strong isolated corners for FE tests:
// bright blocks of varying size, shade and jitter scattered on a dark
// background. FAST responds to isolated L-corners (ideal checkerboard
// X-junctions do not produce the contiguous circle arc the segment test
// requires), and the per-block variation makes descriptors discriminative
// enough to survive the ratio test.
func checkerFrame(w, h, cell int) *img.Gray {
	f := img.NewGray(w, h)
	f.Fill(40)
	for y := cell; y < h-cell; y += cell {
		for x := cell; x < w-cell; x += cell {
			hsh := uint32(x*73856093) ^ uint32(y*19349663)
			hsh = (hsh ^ hsh>>13) * 0x5bd1e995
			if hsh%3 == 0 {
				continue // leave gaps so blocks stay isolated
			}
			size := 4 + int(hsh>>4)%5       // 4..8 px
			jx := int(hsh>>8) % (cell / 3)  // positional jitter
			jy := int(hsh>>16) % (cell / 3) //
			shade := uint8(150 + hsh%80)    // 150..229
			f.FillRect(img.RectWH(float64(x+jx), float64(y+jy), float64(size), float64(size)), shade)
		}
	}
	return f
}

func TestFASTFindsBlockCorners(t *testing.T) {
	// Exact-position frame: isolated 8x8 blocks at known anchors.
	f := img.NewGray(128, 128)
	f.Fill(40)
	anchors := [][2]int{{32, 32}, {64, 48}, {96, 80}, {48, 96}}
	for _, a := range anchors {
		f.FillRect(img.RectWH(float64(a[0]), float64(a[1]), 8, 8), 210)
	}
	kps := DetectFAST(f, DefaultFASTConfig())
	if len(kps) < len(anchors) {
		t.Fatalf("only %d keypoints for %d blocks", len(kps), len(anchors))
	}
	for _, kp := range kps {
		onBlock := false
		for _, a := range anchors {
			if kp.X >= a[0]-3 && kp.X <= a[0]+11 && kp.Y >= a[1]-3 && kp.Y <= a[1]+11 {
				onBlock = true
				break
			}
		}
		if !onBlock {
			t.Errorf("keypoint (%d,%d) not near any block", kp.X, kp.Y)
		}
	}
}

func TestFASTFlatImageNoCorners(t *testing.T) {
	f := img.NewGray(64, 64)
	f.Fill(100)
	if kps := DetectFAST(f, DefaultFASTConfig()); len(kps) != 0 {
		t.Errorf("flat image yielded %d keypoints", len(kps))
	}
}

func TestFASTRespectsMaxFeaturesAndBorder(t *testing.T) {
	f := checkerFrame(256, 256, 8)
	cfg := DefaultFASTConfig()
	cfg.MaxFeatures = 50
	kps := DetectFAST(f, cfg)
	if len(kps) > 50 {
		t.Errorf("MaxFeatures violated: %d", len(kps))
	}
	for _, kp := range kps {
		if kp.X < cfg.Border || kp.Y < cfg.Border ||
			kp.X >= 256-cfg.Border || kp.Y >= 256-cfg.Border {
			t.Fatalf("keypoint (%d,%d) violates border %d", kp.X, kp.Y, cfg.Border)
		}
	}
}

func TestFASTOrderedByScore(t *testing.T) {
	kps := DetectFAST(checkerFrame(128, 128, 16), DefaultFASTConfig())
	for i := 1; i < len(kps); i++ {
		if kps[i].Score > kps[i-1].Score {
			t.Fatal("keypoints not sorted by descending score")
		}
	}
}

func TestHasContigRun(t *testing.T) {
	cases := []struct {
		mask uint32
		n    int
		want bool
	}{
		{0, 9, false},
		{0x1FF, 9, true},           // bits 0..8
		{0x1FF, 10, false},         //
		{0xFF00 | 0x0001, 9, true}, // wraparound: 8..15 + 0
		{0b1010101010101010, 2, false},
		{0xFFFF, 16, true},
	}
	for _, c := range cases {
		if got := hasContigRun(c.mask, c.n); got != c.want {
			t.Errorf("hasContigRun(%#x,%d) = %v, want %v", c.mask, c.n, got, c.want)
		}
	}
}

func TestOrientationDirection(t *testing.T) {
	// Bright half on the right: centroid points along +x, angle ~0.
	f := img.NewGray(64, 64)
	for y := 0; y < 64; y++ {
		for x := 32; x < 64; x++ {
			f.Set(x, y, 200)
		}
	}
	a := orientation(f, 32, 32, 7)
	if math.Abs(a) > 0.2 {
		t.Errorf("right-bright angle = %v, want ~0", a)
	}
	// Bright on the bottom: angle ~ +pi/2 (y grows downward).
	f2 := img.NewGray(64, 64)
	for y := 32; y < 64; y++ {
		for x := 0; x < 64; x++ {
			f2.Set(x, y, 200)
		}
	}
	a2 := orientation(f2, 32, 32, 7)
	if math.Abs(a2-math.Pi/2) > 0.2 {
		t.Errorf("bottom-bright angle = %v, want ~pi/2", a2)
	}
}

func TestDescriptorHamming(t *testing.T) {
	var a, b Descriptor
	if a.Hamming(b) != 0 {
		t.Error("identical descriptors should have distance 0")
	}
	b[0] = 0xFF
	if a.Hamming(b) != 8 {
		t.Errorf("distance = %d, want 8", a.Hamming(b))
	}
	for i := range b {
		a[i] = ^b[i]
	}
	if a.Hamming(b) != 256 {
		t.Errorf("complement distance = %d, want 256", a.Hamming(b))
	}
}

// Property: Hamming distance is a metric (symmetry + triangle inequality).
func TestHammingMetricProperty(t *testing.T) {
	f := func(a, b, c Descriptor) bool {
		ab, ba := a.Hamming(b), b.Hamming(a)
		if ab != ba {
			return false
		}
		return a.Hamming(c) <= ab+b.Hamming(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDescriptorStability(t *testing.T) {
	f := checkerFrame(128, 128, 16)
	kps := DetectFAST(f, DefaultFASTConfig())
	if len(kps) == 0 {
		t.Fatal("no keypoints")
	}
	d1 := Compute(f, kps[0])
	d2 := Compute(f, kps[0])
	if d1 != d2 {
		t.Error("descriptor not deterministic")
	}
}

func TestDescriptorsDiscriminate(t *testing.T) {
	f := checkerFrame(128, 128, 16)
	kps := DetectFAST(f, DefaultFASTConfig())
	if len(kps) < 2 {
		t.Skip("need 2 keypoints")
	}
	// Same keypoint matches itself better than a shifted impostor patch.
	d0 := Compute(f, kps[0])
	imp := kps[0]
	imp.X += 5
	imp.Y += 3
	dImp := Compute(f, imp)
	if d0.Hamming(dImp) == 0 {
		t.Error("shifted patch produced identical descriptor; no discrimination")
	}
}

func TestMatchDescriptorsFindsTranslatedFeatures(t *testing.T) {
	// Same checkerboard shifted by (2,1): features should still match.
	a := checkerFrame(160, 120, 16)
	b := img.NewGray(160, 120)
	for y := 0; y < 120; y++ {
		for x := 0; x < 160; x++ {
			b.Set(x, y, a.At(x-2, y-1))
		}
	}
	cfg := DefaultFASTConfig()
	kpA := DetectFAST(a, cfg)
	kpB := DetectFAST(b, cfg)
	dA := ComputeAll(a, kpA)
	dB := ComputeAll(b, kpB)
	ms := MatchDescriptors(dA, dB, 48, 0.9)
	if len(ms) < len(kpA)/4 {
		t.Errorf("only %d matches from %d keypoints", len(ms), len(kpA))
	}
	// Matched pairs should be spatially consistent with the shift.
	consistent := 0
	for _, m := range ms {
		dx := kpB[m.TrainIdx].X - kpA[m.QueryIdx].X
		dy := kpB[m.TrainIdx].Y - kpA[m.QueryIdx].Y
		if dx >= 1 && dx <= 3 && dy >= 0 && dy <= 2 {
			consistent++
		}
	}
	if float64(consistent) < 0.5*float64(len(ms)) {
		t.Errorf("only %d/%d matches consistent with the shift", consistent, len(ms))
	}
}

func TestMatchDescriptorsEmptyTrain(t *testing.T) {
	if ms := MatchDescriptors([]Descriptor{{}}, nil, 48, 0.8); ms != nil {
		t.Error("empty train set should produce no matches")
	}
}

func TestPriorMapOrderingAndCandidates(t *testing.T) {
	m := NewPriorMap()
	for _, z := range []float64{50, 10, 30, 20, 40} {
		m.Add(scene.Pose{Z: z}, nil, nil)
	}
	if m.Len() != 5 {
		t.Fatalf("len = %d", m.Len())
	}
	all := m.All()
	for i := 1; i < len(all); i++ {
		if all[i].Pose.Z < all[i-1].Pose.Z {
			t.Fatal("keyframes not sorted by Z")
		}
	}
	c := m.Candidates(25, 7)
	if len(c) != 2 || c[0].Pose.Z != 20 || c[1].Pose.Z != 30 {
		t.Errorf("candidates(25,7) = %v", c)
	}
	if len(m.Candidates(-100, 5)) != 0 {
		t.Error("out-of-range candidates should be empty")
	}
}

func TestPriorMapNearestZ(t *testing.T) {
	m := NewPriorMap()
	if _, ok := m.NearestZ(0); ok {
		t.Error("empty map should report no nearest")
	}
	m.Add(scene.Pose{Z: 10}, nil, nil)
	m.Add(scene.Pose{Z: 20}, nil, nil)
	if kf, _ := m.NearestZ(13); kf.Pose.Z != 10 {
		t.Errorf("nearest(13) = %v, want 10", kf.Pose.Z)
	}
	if kf, _ := m.NearestZ(16); kf.Pose.Z != 20 {
		t.Errorf("nearest(16) = %v, want 20", kf.Pose.Z)
	}
}

func TestPriorMapStorageGrows(t *testing.T) {
	m := NewPriorMap()
	before := m.StorageBytes()
	m.Add(scene.Pose{}, make([]Keypoint, 100), make([]Descriptor, 100))
	if m.StorageBytes() <= before {
		t.Error("storage estimate did not grow")
	}
	if m.String() == "" {
		t.Error("empty String()")
	}
}

func TestEngineValidation(t *testing.T) {
	m := NewPriorMap()
	if _, err := NewEngine(DefaultConfig(), nil); err == nil {
		t.Error("nil map accepted")
	}
	bad := DefaultConfig()
	bad.KeyframeSpacing = 0
	if _, err := NewEngine(bad, m); err == nil {
		t.Error("zero spacing accepted")
	}
	bad2 := DefaultConfig()
	bad2.RelocWindow = 1 // < TrackWindow
	if _, err := NewEngine(bad2, m); err == nil {
		t.Error("reloc window narrower than track window accepted")
	}
	if _, err := NewEngine(DefaultConfig(), m); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

// surveyedWorld builds a scenario, surveys it into a prior map, and returns
// a replay generator with identical config.
func surveyedWorld(t *testing.T, frames int) (*Engine, *scene.Generator) {
	t.Helper()
	cfg := scene.DefaultConfig(scene.Urban)
	cfg.Width, cfg.Height = 512, 256
	gen, err := scene.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewPriorMap()
	eng, err := NewEngine(DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		f := gen.Step()
		eng.Survey(f.Image, f.EgoPose)
	}
	replay, err := scene.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, replay
}

func TestSurveyBuildsSpacedKeyframes(t *testing.T) {
	eng, _ := surveyedWorld(t, 40)
	m := eng.Map()
	if m.Len() < 5 {
		t.Fatalf("survey built only %d keyframes", m.Len())
	}
	all := m.All()
	for i := 1; i < len(all); i++ {
		if all[i].Pose.Z-all[i-1].Pose.Z < eng.cfg.KeyframeSpacing-1e-9 {
			t.Fatal("keyframes closer than spacing")
		}
	}
}

func TestLocalizeOnSurveyedRoute(t *testing.T) {
	eng, replay := surveyedWorld(t, 40)
	tracked := 0
	var worstErr float64
	for i := 0; i < 40; i++ {
		f := replay.Step()
		est := eng.Localize(f.Image)
		if est.Tracked {
			tracked++
			if e := math.Abs(est.Pose.Z - f.EgoPose.Z); e > worstErr {
				worstErr = e
			}
		}
	}
	if tracked < 30 {
		t.Fatalf("tracked only %d/40 frames on the surveyed route", tracked)
	}
	if worstErr > 2*eng.cfg.KeyframeSpacing {
		t.Errorf("worst position error %.2f m exceeds 2x keyframe spacing", worstErr)
	}
}

func TestColdStartRelocalizes(t *testing.T) {
	eng, replay := surveyedWorld(t, 20)
	f := replay.Step()
	est := eng.Localize(f.Image)
	if !est.Relocalized {
		t.Error("first frame should take the relocalization path")
	}
	if eng.Relocalizations() == 0 {
		t.Error("relocalization counter not incremented")
	}
}

func TestTimingBreakdownFEDominates(t *testing.T) {
	eng, replay := surveyedWorld(t, 20)
	f := replay.Step()
	_, tm := eng.LocalizeTimed(f.Image)
	if tm.FE <= 0 || tm.Other < 0 {
		t.Fatalf("bad timing %+v", tm)
	}
}

func TestLocalMappingExtendsMap(t *testing.T) {
	// Survey a short prefix, then drive beyond it: the engine should add
	// keyframes while it can still track (and eventually may lose track,
	// which is fine for this test).
	cfg := scene.DefaultConfig(scene.Urban)
	cfg.Width, cfg.Height = 512, 256
	gen, _ := scene.New(cfg)
	m := NewPriorMap()
	eng, _ := NewEngine(DefaultConfig(), m)
	for i := 0; i < 10; i++ {
		f := gen.Step()
		eng.Survey(f.Image, f.EgoPose)
	}
	sizeAfterSurvey := m.Len()

	replay, _ := scene.New(cfg)
	for i := 0; i < 30; i++ {
		f := replay.Step()
		eng.Localize(f.Image)
	}
	if m.Len() <= sizeAfterSurvey {
		t.Errorf("local mapping never extended the map (%d keyframes)", m.Len())
	}
	if eng.MapUpdates() == 0 {
		t.Error("map-update counter not incremented")
	}
}

func TestDeadReckoningWhenMapEmpty(t *testing.T) {
	m := NewPriorMap()
	eng, _ := NewEngine(DefaultConfig(), m)
	f := checkerFrame(256, 128, 16)
	est := eng.Localize(f)
	if est.Tracked {
		t.Error("tracked=true with an empty map")
	}
	if !est.Relocalized {
		t.Error("empty-map frame should have attempted relocalization")
	}
}

func BenchmarkExtractFeatures(b *testing.B) {
	f := checkerFrame(512, 256, 16)
	cfg := DefaultFASTConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractFeatures(f, cfg)
	}
}

func BenchmarkMatchDescriptors(b *testing.B) {
	f := checkerFrame(512, 256, 16)
	kps, descs := ExtractFeatures(f, DefaultFASTConfig())
	_ = kps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatchDescriptors(descs, descs, 48, 0.85)
	}
}

// TestLoopRouteWrapHandled drives a periodic loop route: lap 1 is surveyed
// into the map, lap 2 revisits the same scenery with ever-growing odometry
// Z. The engine must recognize the revisit — via wide-search relocalization
// at the wrap and/or the loop-closing scan — and keep the pose accurate in
// the map frame for the whole second lap.
func TestLoopRouteWrapHandled(t *testing.T) {
	cfg := scene.DefaultConfig(scene.Urban)
	cfg.Width, cfg.Height = 512, 256
	cfg.LoopLength = 120 // multiple of 6 for exact dash periodicity
	cfg.NumSigns = 4
	gen, err := scene.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	m := NewPriorMap()
	ecfg := DefaultConfig()
	ecfg.LoopCloseEvery = 10
	ecfg.LoopCloseMinGap = 60
	eng, err := NewEngine(ecfg, m)
	if err != nil {
		t.Fatal(err)
	}

	framesPerLap := int(cfg.LoopLength / (cfg.EgoSpeed / cfg.FPS)) // ≈ 92
	// Lap 1: survey with the pose wrapped into the loop frame [0, L).
	for i := 0; i < framesPerLap; i++ {
		f := gen.Step()
		pose := f.EgoPose
		pose.Z = math.Mod(pose.Z, cfg.LoopLength)
		eng.Survey(f.Image, pose)
	}
	if m.Len() < 10 {
		t.Fatalf("lap-1 survey built only %d keyframes", m.Len())
	}

	// Lap 2: localize. The odometry Z grows past the map's extent; the
	// engine must re-anchor into the map frame and stay accurate.
	var worstErr float64
	trackedFrames := 0
	for i := 0; i < framesPerLap; i++ {
		f := gen.Step()
		est := eng.Localize(f.Image)
		if !est.Tracked {
			continue
		}
		trackedFrames++
		// Skip the first few frames while the wrap is being resolved.
		if i < 12 {
			continue
		}
		wrapped := math.Mod(f.EgoPose.Z, cfg.LoopLength)
		e := math.Abs(est.Pose.Z - wrapped)
		if alt := cfg.LoopLength - e; alt < e {
			e = alt // wrap-around distance
		}
		if e > worstErr {
			worstErr = e
		}
	}
	if trackedFrames < framesPerLap*3/4 {
		t.Fatalf("tracked only %d/%d lap-2 frames", trackedFrames, framesPerLap)
	}
	if worstErr > 6 {
		t.Errorf("worst lap-2 map-frame pose error %.1f m", worstErr)
	}
	if eng.Relocalizations()+eng.LoopClosures() == 0 {
		t.Error("the revisit was never explicitly recognized (no reloc, no closure)")
	}
}

// TestDetectLoopDirect exercises the loop-closure scan in isolation: with
// the engine believing it is far along the loop, a frame from the start of
// the loop must match its surveyed twin once the evidence threshold allows.
func TestDetectLoopDirect(t *testing.T) {
	cfg := scene.DefaultConfig(scene.Urban)
	cfg.Width, cfg.Height = 512, 256
	cfg.LoopLength = 120
	cfg.NumSigns = 4
	gen, _ := scene.New(cfg)
	ecfg := DefaultConfig()
	ecfg.LoopCloseMinGap = 60
	eng, _ := NewEngine(ecfg, NewPriorMap())
	framesPerLap := int(cfg.LoopLength / (cfg.EgoSpeed / cfg.FPS))
	var early scene.Frame
	for i := 0; i < framesPerLap; i++ {
		f := gen.Step()
		if i == 4 {
			early = f
		}
		pose := f.EgoPose
		pose.Z = math.Mod(pose.Z, cfg.LoopLength)
		eng.Survey(f.Image, pose)
	}
	kps, descs := ExtractFeatures(early.Image, ecfg.FAST)

	// Claimed pose far from the early frame's true position.
	claimed := scene.Pose{Z: 115}
	kf, ok := eng.detectLoop(kps, descs, claimed, 2*ecfg.MinMatches)
	if !ok {
		t.Fatal("loop scan failed to find the surveyed twin")
	}
	if math.Abs(kf.Pose.Z-early.EgoPose.Z) > 2*ecfg.KeyframeSpacing {
		t.Errorf("closure matched keyframe at z=%.1f, want ~%.1f", kf.Pose.Z, early.EgoPose.Z)
	}

	// With an unreachable evidence threshold, no closure may fire.
	if _, ok := eng.detectLoop(kps, descs, claimed, 100000); ok {
		t.Error("closure fired despite an unreachable threshold")
	}

	// With every keyframe inside the minimum gap, no closure may fire.
	if _, ok := eng.detectLoop(kps, descs, scene.Pose{Z: 60}, 1); ok {
		if ecfg.LoopCloseMinGap*2 > cfg.LoopLength {
			t.Error("closure fired with all keyframes inside the gap")
		}
	}
}

// TestLoopWorldIsPeriodic verifies the scene substrate: frames one loop
// apart are pixel-identical, which is what makes loop closure detectable.
func TestLoopWorldIsPeriodic(t *testing.T) {
	cfg := scene.DefaultConfig(scene.Urban)
	cfg.Width, cfg.Height = 256, 128
	cfg.LoopLength = 120
	cfg.EgoSpeed = 12 // 1.2 m/frame: exactly 100 frames per lap
	gen, err := scene.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	framesPerLap := 100
	var lap1 []*img.Gray
	for i := 0; i < framesPerLap; i++ {
		lap1 = append(lap1, gen.Step().Image)
	}
	for i := 0; i < framesPerLap; i++ {
		f := gen.Step()
		for j := range f.Image.Pix {
			if f.Image.Pix[j] != lap1[i].Pix[j] {
				t.Fatalf("lap-2 frame %d differs from lap-1 at pixel %d", i, j)
			}
		}
	}
}

// TestLocalizationAcrossIllumination surveys the map in nominal light and
// localizes a dimmer replay of the same route — the "map built under
// different weather" robustness the paper's map-update path addresses.
// rBRIEF's binary comparisons are invariant to monotone intensity scaling,
// so tracking must survive the change.
func TestLocalizationAcrossIllumination(t *testing.T) {
	cfg := scene.DefaultConfig(scene.Urban)
	cfg.Width, cfg.Height = 512, 256
	gen, err := scene.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := NewEngine(DefaultConfig(), NewPriorMap())
	for i := 0; i < 30; i++ {
		f := gen.Step()
		eng.Survey(f.Image, f.EgoPose)
	}

	dim := cfg
	dim.Illumination = 0.8
	replay, err := scene.New(dim)
	if err != nil {
		t.Fatal(err)
	}
	tracked := 0
	for i := 0; i < 20; i++ {
		f := replay.Step()
		if eng.Localize(f.Image).Tracked {
			tracked++
		}
	}
	if tracked < 15 {
		t.Errorf("localized only %d/20 frames under 0.8x illumination", tracked)
	}
}

// Exhaustive check of the shift-and-AND run detector against a brute-force
// circular scan, over every run length and 40k random masks plus the full
// low-16-bit space for n=9 (the FAST-9 case).
func TestHasContigRunAgainstBruteForce(t *testing.T) {
	brute := func(mask uint32, n int) bool {
		for start := 0; start < 16; start++ {
			run := 0
			for i := 0; i < 16; i++ {
				if mask&(1<<uint((start+i)%16)) != 0 {
					run++
					if run >= n {
						return true
					}
				} else {
					break
				}
			}
		}
		return false
	}
	for mask := uint32(0); mask < 1<<16; mask++ {
		if got, want := hasContigRun(mask, 9), brute(mask, 9); got != want {
			t.Fatalf("hasContigRun(%#x, 9) = %v, want %v", mask, got, want)
		}
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40000; trial++ {
		mask := uint32(rng.Intn(1 << 16))
		n := 1 + rng.Intn(16)
		if got, want := hasContigRun(mask, n), brute(mask, n); got != want {
			t.Fatalf("hasContigRun(%#x, %d) = %v, want %v", mask, n, got, want)
		}
	}
}

// The compass pre-test rests on this fact: any run of >= 9 contiguous
// circle points must contain at least one of the north/south axis points
// {0, 8} AND at least one of the east/west points {4, 12}. Verify it over
// the whole mask space so the fast rejection can never drop a corner.
func TestCompassPretestIsNecessaryCondition(t *testing.T) {
	for mask := uint32(0); mask < 1<<16; mask++ {
		if !hasContigRun(mask, 9) {
			continue
		}
		ns := mask&(1<<0) != 0 || mask&(1<<8) != 0
		ew := mask&(1<<4) != 0 || mask&(1<<12) != 0
		if !ns || !ew {
			t.Fatalf("mask %#x has a 9-run but misses a compass axis (ns=%v ew=%v)", mask, ns, ew)
		}
	}
}

// ExtractFeaturesScratch is ExtractFeatures routed through a reusable
// buffer set; results must be bitwise-identical, including across reuse.
func TestExtractFeaturesScratchIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var s FEScratch
	for trial := 0; trial < 3; trial++ {
		f := img.NewGray(128, 96)
		for i := range f.Pix {
			f.Pix[i] = uint8(rng.Intn(256))
		}
		cfg := DefaultFASTConfig()
		wantK, wantD := ExtractFeatures(f, cfg)
		gotK, gotD := ExtractFeaturesScratch(f, cfg, &s)
		if len(gotK) != len(wantK) || len(gotD) != len(wantD) {
			t.Fatalf("trial %d: %d/%d features scratch vs %d/%d plain",
				trial, len(gotK), len(gotD), len(wantK), len(wantD))
		}
		for i := range wantK {
			if gotK[i] != wantK[i] {
				t.Fatalf("trial %d: kp[%d] = %+v, want %+v", trial, i, gotK[i], wantK[i])
			}
			if gotD[i] != wantD[i] {
				t.Fatalf("trial %d: desc[%d] differs", trial, i)
			}
		}
	}
}
