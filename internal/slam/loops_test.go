package slam

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"adsim/internal/img"
	"adsim/internal/scene"
	"adsim/internal/testutil"
)

// The references below are LOC's five hot loops as they were before their
// fast paths: plain per-tap Gray.At reads, a full-map NMS scan and the
// branchy matcher. Each fast path must match its reference bit for bit.

// boxBlur3Ref is the FE's radius-1 box blur as a plain sum over each
// pixel's in-bounds 3×3 taps, rounding half up.
func boxBlur3Ref(im *img.Gray) *img.Gray {
	out := img.NewGray(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			sum, area := 0, 0
			for ty := max(y-1, 0); ty <= min(y+1, im.H-1); ty++ {
				for tx := max(x-1, 0); tx <= min(x+1, im.W-1); tx++ {
					sum += int(im.At(tx, ty))
					area++
				}
			}
			out.Pix[y*im.W+x] = uint8((sum + area/2) / area)
		}
	}
	return out
}

// matchDescriptorsRef is the plain brute-force matcher.
func matchDescriptorsRef(query, train []Descriptor, maxDist int, ratio float64) []Match {
	if len(train) == 0 {
		return nil
	}
	var out []Match
	for qi, q := range query {
		best, second := DescriptorBits+1, DescriptorBits+1
		bestIdx := -1
		for ti, t := range train {
			d := q.Hamming(t)
			if d < best {
				second = best
				best = d
				bestIdx = ti
			} else if d < second {
				second = d
			}
		}
		if best <= maxDist && float64(best) < ratio*float64(second) {
			out = append(out, Match{QueryIdx: qi, TrainIdx: bestIdx, Distance: best})
		}
	}
	return out
}

// detectFASTRef is oFAST with 2-D tap arithmetic, a full score map and a
// full-map 3×3 NMS scan.
func detectFASTRef(im *img.Gray, cfg FASTConfig) []Keypoint {
	if cfg.ContigMin <= 0 || cfg.ContigMin > 16 {
		cfg.ContigMin = 9
	}
	if cfg.Border < 4 {
		cfg.Border = 4
	}
	w, h := im.W, im.H
	scores := make([]int, w*h)
	for y := cfg.Border; y < h-cfg.Border; y++ {
		row := y * w
		for x := cfg.Border; x < w-cfg.Border; x++ {
			// The compass pre-test (see detectFAST).
			if cfg.ContigMin >= 9 {
				c := int(im.Pix[row+x])
				t := cfg.Threshold
				d0 := int(im.Pix[row-3*w+x]) - c
				d8 := int(im.Pix[row+3*w+x]) - c
				d4 := int(im.Pix[row+x+3]) - c
				d12 := int(im.Pix[row+x-3]) - c
				bright := (d0 > t || d8 > t) && (d4 > t || d12 > t)
				dark := (d0 < -t || d8 < -t) && (d4 < -t || d12 < -t)
				if !bright && !dark {
					continue
				}
			}
			scores[row+x] = fastScoreRef(im, x, y, cfg.Threshold, cfg.ContigMin)
		}
	}
	var kps []Keypoint
	for y := cfg.Border; y < h-cfg.Border; y++ {
		for x := cfg.Border; x < w-cfg.Border; x++ {
			s := scores[y*w+x]
			if s == 0 {
				continue
			}
			isMax := true
			for dy := -1; dy <= 1 && isMax; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					n := scores[(y+dy)*w+(x+dx)]
					if n > s || (n == s && (dy < 0 || (dy == 0 && dx < 0))) {
						isMax = false
						break
					}
				}
			}
			if isMax {
				kps = append(kps, Keypoint{X: x, Y: y, Score: s})
			}
		}
	}
	sortKeypoints(kps)
	if cfg.MaxFeatures > 0 && len(kps) > cfg.MaxFeatures {
		kps = kps[:cfg.MaxFeatures]
	}
	for i := range kps {
		kps[i].Angle = orientationRef(im, kps[i].X, kps[i].Y, 7)
	}
	return kps
}

func fastScoreRef(im *img.Gray, x, y, threshold, contigMin int) int {
	c := int(im.Pix[y*im.W+x])
	var bright, dark uint32
	var diffs [16]int
	for i, off := range circleOffsets16 {
		d := int(im.Pix[(y+off[1])*im.W+(x+off[0])]) - c
		diffs[i] = d
		if d > threshold {
			bright |= 1 << uint(i)
		} else if d < -threshold {
			dark |= 1 << uint(i)
		}
	}
	if !hasContigRun(bright, contigMin) && !hasContigRun(dark, contigMin) {
		return 0
	}
	score := 0
	for _, d := range diffs {
		if d < 0 {
			d = -d
		}
		if d > threshold {
			score += d - threshold
		}
	}
	return score
}

func orientationRef(im *img.Gray, x, y, radius int) float64 {
	var m01, m10 int64
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			if dx*dx+dy*dy > radius*radius {
				continue
			}
			v := int64(im.At(x+dx, y+dy))
			m10 += int64(dx) * v
			m01 += int64(dy) * v
		}
	}
	return math.Atan2(float64(m01), float64(m10))
}

// computeRef is rBRIEF with a Gray.At read per tap.
func computeRef(im *img.Gray, kp Keypoint) Descriptor {
	step := int(math.Round(kp.Angle/(2*math.Pi/rotationSteps))) % rotationSteps
	if step < 0 {
		step += rotationSteps
	}
	pattern := &rotationLUT[step]
	var d Descriptor
	for i := 0; i < DescriptorBits; i++ {
		p := pattern[i]
		a := im.At(kp.X+int(p[0]), kp.Y+int(p[1]))
		b := im.At(kp.X+int(p[2]), kp.Y+int(p[3]))
		if a < b {
			d[i/64] |= 1 << uint(i%64)
		}
	}
	return d
}

// sceneFrames renders n consecutive 512×256 urban frames, each box-blurred
// as the FE stage sees it.
func sceneFrames(t testing.TB, n int) []*img.Gray {
	t.Helper()
	cfg := scene.DefaultConfig(scene.Urban)
	cfg.Width, cfg.Height = 512, 256
	gen, err := scene.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*img.Gray, n)
	for i := range out {
		out[i] = gen.Step().Image.BoxBlur(1)
	}
	return out
}

func noiseGray(rng *rand.Rand, w, h int) *img.Gray {
	g := img.NewGray(w, h)
	for i := range g.Pix {
		g.Pix[i] = uint8(rng.Intn(256))
	}
	return g
}

func checkKeypoints(t *testing.T, what string, got, want []Keypoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keypoints, reference %d", what, len(got), len(want))
	}
	for i := range want {
		// Angle compared by bits: NaN never occurs, and -0 vs +0 would
		// still be a difference worth failing on.
		if got[i].X != want[i].X || got[i].Y != want[i].Y || got[i].Score != want[i].Score ||
			got[i].Level != want[i].Level || math.Float64bits(got[i].Angle) != math.Float64bits(want[i].Angle) {
			t.Fatalf("%s: keypoint %d = %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// On recorded scene frames, the blur, FAST, rBRIEF and the matcher (frame
// i against frame i+1) equal their references, with one scratch reused
// throughout.
func TestLOCLoopsMatchRefOnSceneFrames(t *testing.T) {
	frames := sceneFrames(t, 10)
	cfg := DefaultConfig()
	var fe FEScratch
	var ms []Match
	var prev []Descriptor
	for i, f := range frames {
		if got, want := f.BoxBlurInto(&fe.smoothed, &fe.integral, 1), boxBlur3Ref(f); !reflect.DeepEqual(got.Pix, want.Pix) {
			t.Fatalf("frame %d: blur differs from reference", i)
		}
		kps := detectFAST(f, cfg.FAST, &fe)
		want := detectFASTRef(f, cfg.FAST)
		checkKeypoints(t, fmt.Sprintf("frame %d", i), kps, want)
		descs := make([]Descriptor, len(kps))
		for k, kp := range kps {
			descs[k] = Compute(f, kp)
			if ref := computeRef(f, kp); descs[k] != ref {
				t.Fatalf("frame %d keypoint %d (%d,%d): descriptor differs from reference", i, k, kp.X, kp.Y)
			}
		}
		if prev != nil {
			want := matchDescriptorsRef(descs, prev, cfg.MatchMaxDist, cfg.MatchRatio)
			checkMatchNeed(t, fmt.Sprintf("frame %d", i), &ms, descs, prev, cfg.MatchMaxDist, cfg.MatchRatio, want)
		}
		prev = descs
	}
}

func equalMatches(a, b []Match) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// checkMatchNeed runs matchInto into the reused *ms at need 0 and at the
// bound's edges around the reference count.
func checkMatchNeed(t *testing.T, what string, ms *[]Match, query, train []Descriptor, maxDist int, ratio float64, want []Match) {
	t.Helper()
	for _, need := range []int{0, len(want) / 2, len(want), len(want) + 1, len(query) + 1} {
		var scanned int
		*ms, scanned = matchInto(*ms, query, train, maxDist, ratio, need)
		if msg := checkNeed(query, train, need, scanned, *ms, want); msg != "" {
			t.Fatalf("%s need=%d: %s", what, need, msg)
		}
	}
}

// checkNeed states matchInto's need contract: a complete result (every
// query scanned) is the reference's; giving up (fewer scanned) is allowed
// only when the reference has fewer than need matches, is required when
// need exceeds the query count (the bound's first test) and neither side is
// empty, and leaves the reference's matches of the queries it scanned.
func checkNeed(query, train []Descriptor, need, scanned int, got, want []Match) string {
	ok := scanned == len(query)
	scannedWant := want
	for len(scannedWant) > 0 && scannedWant[len(scannedWant)-1].QueryIdx >= scanned {
		scannedWant = scannedWant[:len(scannedWant)-1]
	}
	switch {
	case scanned < 0 || scanned > len(query):
		return fmt.Sprintf("scanned %d of %d queries", scanned, len(query))
	case !ok && !equalMatches(got, scannedWant):
		return fmt.Sprintf("gave up after %d queries with %v, reference %v", scanned, got, scannedWant)
	case ok && !equalMatches(got, want):
		return fmt.Sprintf("complete result %v, reference %v", got, want)
	case !ok && len(want) >= need:
		return fmt.Sprintf("gave up, but the reference has %d matches", len(want))
	case ok && need > len(query) && len(query) > 0 && len(train) > 0:
		return "kept scanning past an unreachable need"
	}
	return ""
}

// FAST at its minimum border (taps and the orientation disc right at the
// edge) on noise images of awkward sizes, under several thresholds and
// feature caps, with the scratch reused across sizes so a stale score map
// would show.
func TestDetectFASTMatchesRefAtBorders(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var fe FEScratch
	for _, sh := range [][2]int{{9, 9}, {10, 17}, {23, 11}, {64, 48}, {37, 29}, {16, 16}} {
		for k, c := range []FASTConfig{
			{Threshold: 20, ContigMin: 9, Border: 4},
			{Threshold: 5, ContigMin: 9, Border: 5, MaxFeatures: 12},
			{Threshold: 30, ContigMin: 12, Border: 4},
			{Threshold: 10, ContigMin: 7, Border: 4}, // no compass pre-test
		} {
			im := noiseGray(rng, sh[0], sh[1])
			if k%2 == 1 {
				// Two-level noise: scores come in a few values, so
				// neighbours tie and NMS's tie-break decides.
				for i, v := range im.Pix {
					im.Pix[i] = v &^ 0x7f
				}
			}
			what := fmt.Sprintf("%dx%d %+v", sh[0], sh[1], c)
			checkKeypoints(t, what, detectFAST(im, c, &fe), detectFASTRef(im, c))
			for i, v := range fe.scores {
				if v != 0 {
					t.Fatalf("%s: score map entry %d left at %d after the call", what, i, v)
				}
			}
		}
	}
}

// orientation's in-bounds path starts exactly where the radius-7 disc fits:
// probe every pixel of a small image, so both sides of that margin (and
// the corners) are compared.
func TestOrientationMatchesRefAtMargin(t *testing.T) {
	im := noiseGray(rand.New(rand.NewSource(3)), 19, 17)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			got, want := orientation(im, x, y, 7), orientationRef(im, x, y, 7)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("orientation(%d,%d) = %v, reference %v", x, y, got, want)
			}
		}
	}
}

// rBRIEF's in-bounds path begins briefMargin from each edge: keypoints at
// exactly that distance and one pixel inside it, on all four sides and at
// every rotation step, equal the reference.
func TestComputeMatchesRefAtMargin(t *testing.T) {
	if briefMargin < PatchRadius-1 || briefMargin > 2*PatchRadius {
		t.Fatalf("briefMargin %d outside the pattern's plausible reach", briefMargin)
	}
	m := briefMargin
	w, h := 2*m+9, 2*m+5
	var probes [][2]int
	for _, d := range []int{m, m - 1} {
		probes = append(probes,
			[2]int{d, h / 2}, [2]int{w - 1 - d, h / 2},
			[2]int{w / 2, d}, [2]int{w / 2, h - 1 - d},
			[2]int{d, d}, [2]int{w - 1 - d, h - 1 - d})
	}
	probes = append(probes, [2]int{0, 0}, [2]int{w / 2, h / 2})
	// Only a few LUT taps reach the full margin, and a tap read past the
	// edge flips its bit only when the pixel it lands on compares
	// differently from 0; several noise images make that near-certain.
	rng := rand.New(rand.NewSource(8))
	for n := 0; n < 8; n++ {
		im := noiseGray(rng, w, h)
		for step := 0; step < rotationSteps; step++ {
			angle := 2 * math.Pi * float64(step) / rotationSteps
			for _, p := range probes {
				kp := Keypoint{X: p[0], Y: p[1], Angle: angle}
				if got, want := Compute(im, kp), computeRef(im, kp); got != want {
					t.Fatalf("image %d step %d keypoint (%d,%d): descriptor differs from reference", n, step, p[0], p[1])
				}
			}
		}
	}
}

// Degenerate matcher inputs: empty sets, exact duplicates in train (ties
// keep the first index), and the extremes of maxDist and ratio.
func TestMatchDescriptorsMatchesRefEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rnd := func(n int) []Descriptor {
		ds := make([]Descriptor, n)
		for i := range ds {
			ds[i] = Descriptor{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		}
		return ds
	}
	query := rnd(40)
	// Train holds every query twice (first copies at the front), a few
	// one-bit variants, and noise.
	train := append(append([]Descriptor{}, query...), query...)
	for i := 0; i < 10; i++ {
		v := query[i]
		v[i%4] ^= 1 << uint(i)
		train = append(train, v)
	}
	train = append(train, rnd(30)...)
	cases := []struct {
		name         string
		query, train []Descriptor
	}{
		{"empty train", query, nil},
		{"empty query", nil, train},
		{"duplicates", query, train},
		{"noise", rnd(50), rnd(60)},
		{"single", query[:1], train[:1]},
		// Distance 256, the largest: only maxDist 256 with ratio > 1
		// accepts it.
		{"complement", query[:1], []Descriptor{{^query[0][0], ^query[0][1], ^query[0][2], ^query[0][3]}}},
	}
	var ms []Match
	for _, c := range cases {
		for _, maxDist := range []int{0, 1, 48, 256} {
			for _, ratio := range []float64{0.5, 0.85, 1.0, 1.5} {
				want := matchDescriptorsRef(c.query, c.train, maxDist, ratio)
				got := MatchDescriptors(c.query, c.train, maxDist, ratio)
				if (got == nil) != (want == nil) || !equalMatches(got, want) {
					t.Fatalf("%s maxDist=%d ratio=%v: %v, reference %v", c.name, maxDist, ratio, got, want)
				}
				checkMatchNeed(t, fmt.Sprintf("%s maxDist=%d ratio=%v", c.name, maxDist, ratio), &ms, c.query, c.train, maxDist, ratio, want)
			}
		}
	}
	// With ratio > 1 an exact duplicate pair passes; the winner must be
	// the first copy.
	for _, m := range MatchDescriptors(query, train, 0, 1.5) {
		if m.TrainIdx != m.QueryIdx || m.Distance != 0 {
			t.Fatalf("duplicate tie resolved to %+v, want the first copy", m)
		}
	}
}

// planted is a query of n random descriptors (about 128 bits apart, so
// nothing matches by chance) at distinct keypoints. A keyframe built from
// m of its features at the same keypoints has exactly m matches and m
// inliers; a suffix puts them all at the end of the scan, where the need
// bound is tightest, a prefix at its start.
type planted struct {
	kps   []Keypoint
	descs []Descriptor
}

func newPlanted(rng *rand.Rand, n int) planted {
	p := planted{kps: make([]Keypoint, n), descs: make([]Descriptor, n)}
	for i := range p.descs {
		p.kps[i] = Keypoint{X: 20 + 4*(i%40), Y: 20 + 4*(i/40)}
		p.descs[i] = Descriptor{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
	}
	return p
}

func (p planted) keyframe(id, m int, suffix bool, z float64) Keyframe {
	lo, hi := 0, m
	if suffix {
		lo, hi = len(p.descs)-m, len(p.descs)
	}
	return Keyframe{ID: id, Pose: scene.Pose{Z: z}, Keypoints: p.kps[lo:hi], Descriptors: p.descs[lo:hi]}
}

// The scorer's bound may only drop keyframes that cannot win. Each
// keyframe is a planted suffix: exactly m matches and m inliers, all at
// the end of the scan, where the bound is tightest. A keyframe one inlier
// ahead of the best must still replace it, and every rotation of the list
// must pick what exact, unbounded scoring picks.
func TestScorerBoundKeepsArgmax(t *testing.T) {
	e, err := NewEngine(DefaultConfig(), NewPriorMap())
	if err != nil {
		t.Fatal(err)
	}
	p := newPlanted(rand.New(rand.NewSource(5)), 200)
	kps, descs := p.kps, p.descs
	exact := func(kf Keyframe) int {
		return e.match.inliers(kps, descs, kf.Keypoints, kf.Descriptors, &e.cfg, 0)
	}
	suffix := func(id, m int) Keyframe { return p.keyframe(id, m, true, 0) }
	kfs := []Keyframe{suffix(1, 60), suffix(2, 61), suffix(3, 30), suffix(4, 120), suffix(5, 119)}
	for _, kf := range kfs {
		if got := exact(kf); got != len(kf.Descriptors) {
			t.Fatalf("keyframe %d: %d exact inliers, built for %d", kf.ID, got, len(kf.Descriptors))
		}
	}
	for r := range kfs {
		cands := append(append([]Keyframe{}, kfs[r:]...), kfs[:r]...)
		want, wantScore := -1, 0
		for _, kf := range cands {
			if inl := exact(kf); inl > wantScore {
				want, wantScore = kf.ID, inl
			}
		}
		sc := scorer{e: e, kps: kps, descs: descs}
		for _, kf := range cands {
			sc.consider(kf)
		}
		if sc.best.ID != want || sc.bestScore != wantScore {
			t.Fatalf("rotation %d: scorer picked keyframe %d with %d inliers, exact scoring %d with %d", r, sc.best.ID, sc.bestScore, want, wantScore)
		}
	}
	sc := scorer{e: e, kps: kps, descs: descs}
	sc.consider(kfs[0])
	sc.consider(kfs[1])
	if sc.best.ID != 2 || sc.bestScore != 61 {
		t.Fatalf("keyframe one inlier ahead lost: best %d with %d inliers", sc.best.ID, sc.bestScore)
	}

	// Loop closing needs minScore inliers: a keyframe with exactly that
	// many is a closure, one short of it is not.
	m := NewPriorMap()
	m.Add(scene.Pose{Z: 0}, kfs[0].Keypoints, kfs[0].Descriptors)
	m.Add(scene.Pose{Z: 2}, kfs[1].Keypoints, kfs[1].Descriptors)
	le, err := NewEngine(DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	far := scene.Pose{Z: 10 * le.cfg.LoopCloseMinGap}
	if kf, ok := le.detectLoop(kps, descs, far, 61); !ok || kf.Pose.Z != 2 {
		t.Fatalf("loop closing missed the keyframe with exactly minScore inliers: %v, %v", kf.Pose, ok)
	}
	if _, ok := le.detectLoop(kps, descs, far, 62); ok {
		t.Fatal("loop closing fired one inlier short of minScore")
	}
}

// bestKeyframeRef is the tracking scorer as it was before its visit order:
// candidates in cands order, each needing one inlier more than the best so
// far, the first best winning ties.
func bestKeyframeRef(e *Engine, kps []Keypoint, descs []Descriptor, cands []Keyframe) (Keyframe, int, bool) {
	sc := scorer{e: e, kps: kps, descs: descs}
	for _, kf := range cands {
		sc.consider(kf)
	}
	return sc.result(e.cfg.MinMatches)
}

// trackRef is the tracking attempt as it was before its bounds: the
// ascending scan, then odometry's exact inlier count.
func trackRef(e *Engine, kps []Keypoint, descs []Descriptor, predicted scene.Pose) (Estimate, bool) {
	cands := e.store.Candidates(predicted.Z, e.cfg.TrackWindow)
	kf, kfInliers, kfOK := bestKeyframeRef(e, kps, descs, cands)
	voInliers := 0
	if len(e.prevDescs) > 0 {
		voInliers = e.match.inliers(kps, descs, e.prevKps, e.prevDescs, &e.cfg, 0)
	}
	if kfOK && float64(kfInliers) >= 0.8*float64(voInliers) {
		return Estimate{Pose: e.refinePose(kf, predicted), Tracked: true, Matches: kfInliers}, true
	}
	if voInliers >= e.cfg.MinMatches {
		return Estimate{Pose: predicted, Tracked: true, Matches: voInliers}, true
	}
	return Estimate{}, false
}

// The nearest-first scan picks what the ascending scan picks, keyframe and
// score, on random candidate sets drawn so that equal |ΔZ| (both sides of
// the prediction, and repeats of one Z) and equal scores are common, and
// scores straddle MinMatches.
func TestBestKeyframeMatchesAscendingScan(t *testing.T) {
	e, err := NewEngine(DefaultConfig(), NewPriorMap())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	p := newPlanted(rng, 160)
	scores := []int{0, 12, 39, 40, 41, 41, 60, 60, 61, 120}
	offsets := []float64{-4, -2, 0, 2, 4}
	const z = 100.0
	for trial := 0; trial < 400; trial++ {
		cands := make([]Keyframe, rng.Intn(9))
		for i := range cands {
			m := scores[rng.Intn(len(scores))]
			cands[i] = p.keyframe(i+1, m, rng.Intn(2) == 0, z+offsets[rng.Intn(len(offsets))])
		}
		wantKF, wantScore, wantOK := bestKeyframeRef(e, p.kps, p.descs, cands)
		gotKF, gotScore, gotOK := e.bestKeyframe(p.kps, p.descs, cands, z)
		if gotKF.ID != wantKF.ID || gotScore != wantScore || gotOK != wantOK {
			t.Fatalf("trial %d: keyframe %d, %d inliers, ok %v; ascending scan %d, %d, %v",
				trial, gotKF.ID, gotScore, gotOK, wantKF.ID, wantScore, wantOK)
		}
	}
}

// voBound is exactly the decision boundary: the map anchor holds against
// every odometry count below it and none from it on.
func TestVOBoundIsTheDecisionBoundary(t *testing.T) {
	for k := 0; k <= 1000; k++ {
		b := voBound(k)
		for v := 0; v <= 2*k+8; v++ {
			if mapHolds(k, v) != (v < b) {
				t.Fatalf("map %d, odometry %d: holds %v, but voBound = %d", k, v, mapHolds(k, v), b)
			}
		}
	}
}

// Around the 0.8 boundary, with and without a qualifying map anchor,
// tracking with the odometry bound decides what the exact count decides:
// same anchor, pose and match count, or lost on both.
func TestTrackVOBoundKeepsDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := newPlanted(rng, 200)
	minM := DefaultConfig().MinMatches
	for _, k := range []int{0, minM - 1, minM, minM + 1, 44, 45, 80, 121} {
		vos := []int{0, 1, minM - 1, minM, minM + 1, k - 1, k, k + 1, len(p.descs)}
		if k >= minM {
			b := voBound(k)
			vos = append(vos, b-2, b-1, b, b+1)
		}
		for _, vo := range vos {
			if vo < 0 || vo > len(p.descs) {
				continue
			}
			m := NewPriorMap()
			kf := p.keyframe(0, k, true, 10)
			m.Add(kf.Pose, kf.Keypoints, kf.Descriptors)
			e, err := NewEngine(DefaultConfig(), m)
			if err != nil {
				t.Fatal(err)
			}
			prev := p.keyframe(0, vo, true, 0)
			e.havePose, e.lastPose, e.velocity = true, scene.Pose{Z: 9}, 1
			e.prevKps, e.prevDescs = prev.Keypoints, prev.Descriptors
			predicted := e.PredictPose()
			want, wantOK := trackRef(e, p.kps, p.descs, predicted)
			got, gotOK := e.track(p.kps, p.descs, predicted)
			if got != want || gotOK != wantOK {
				t.Fatalf("map %d, odometry %d: %+v (ok %v), exact count %+v (ok %v)", k, vo, got, gotOK, want, wantOK)
			}
		}
	}
}

// On a recorded 60-frame highway drive over a surveyed map, every tracking
// attempt returns the estimate the reference scan returns from the same
// engine state, and the bounded scan compares strictly fewer descriptor
// pairs in total. The count is the matcher's own, so no timing enters.
func TestTrackingScanComparesFewerPairs(t *testing.T) {
	cfg := scene.DefaultConfig(scene.Highway)
	cfg.Width, cfg.Height = 512, 256
	gen, err := scene.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(DefaultConfig(), NewPriorMap())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		f := gen.Step()
		e.Survey(f.Image, f.EgoPose)
	}
	replay, err := scene.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var refPairs, gotPairs, attempts int
	for i := 0; i < 60; i++ {
		frame := replay.Step().Image
		if e.havePose && !e.lost {
			kps, descs := ExtractFeatures(frame, e.cfg.FAST)
			predicted := e.PredictPose()
			before := e.match.pairs
			want, wantOK := trackRef(e, kps, descs, predicted)
			mid := e.match.pairs
			got, gotOK := e.track(kps, descs, predicted)
			refPairs += mid - before
			gotPairs += e.match.pairs - mid
			attempts++
			if got != want || gotOK != wantOK {
				t.Fatalf("frame %d: %+v (ok %v), reference %+v (ok %v)", i, got, gotOK, want, wantOK)
			}
		}
		e.Localize(frame)
	}
	if attempts < 50 {
		t.Fatalf("only %d of 60 frames attempted tracking", attempts)
	}
	t.Logf("%d tracking attempts: %d descriptor pairs, reference %d (%.1f%% fewer)",
		attempts, gotPairs, refPairs, 100*(1-float64(gotPairs)/float64(refPairs)))
	if gotPairs >= refPairs {
		t.Fatalf("bounded tracking compared %d descriptor pairs, reference %d: want strictly fewer", gotPairs, refPairs)
	}
}

// FuzzMatchDescriptors checks the matcher against matchDescriptorsRef on
// random query/train sets drawn near a small pool (so ties, duplicates
// and near-threshold distances are common) and random maxDist and ratio.
// `make fuzz-smoke` runs it for 10s.
func FuzzMatchDescriptors(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(30), 48, 0.85, uint8(3))
	f.Add(int64(2), uint8(0), uint8(5), 0, 1.0, uint8(0))
	f.Add(int64(3), uint8(9), uint8(0), 256, 0.5, uint8(1))
	f.Add(int64(4), uint8(64), uint8(64), 300, 2.0, uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, nq, nt uint8, maxDist int, ratio float64, flips uint8) {
		rng := rand.New(rand.NewSource(seed))
		pool := make([]Descriptor, 1+int(flips)%8)
		for i := range pool {
			pool[i] = Descriptor{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		}
		draw := func(n int) []Descriptor {
			ds := make([]Descriptor, n)
			for i := range ds {
				d := pool[rng.Intn(len(pool))]
				for k := rng.Intn(int(flips)%64 + 1); k > 0; k-- {
					b := rng.Intn(DescriptorBits)
					d[b/64] ^= 1 << uint(b%64)
				}
				ds[i] = d
			}
			return ds
		}
		query, train := draw(int(nq)), draw(int(nt))
		want := matchDescriptorsRef(query, train, maxDist, ratio)
		got := MatchDescriptors(query, train, maxDist, ratio)
		if (got == nil) != (want == nil) || !equalMatches(got, want) {
			t.Fatalf("maxDist=%d ratio=%v: %v, reference %v", maxDist, ratio, got, want)
		}
		need := rng.Intn(len(query) + 2)
		got, scanned := matchInto(nil, query, train, maxDist, ratio, need)
		if msg := checkNeed(query, train, need, scanned, got, want); msg != "" {
			t.Fatalf("maxDist=%d ratio=%v need=%d: %s", maxDist, ratio, need, msg)
		}
	})
}

// inliersRef is inliers as one sequential scan with the exact count: the
// plain matcher, then geometric verification.
func inliersRef(kps []Keypoint, descs []Descriptor, tkps []Keypoint, tdescs []Descriptor, cfg *Config) ([]Match, int) {
	ms := matchDescriptorsRef(descs, tdescs, cfg.MatchMaxDist, cfg.MatchRatio)
	return ms, GeometricInliers(kps, tkps, ms, cfg.InlierTol)
}

// The fanned-out matcher against one sequential scan, at widths 1 to 4, on
// random sets drawn near a small pool (so ties, duplicates and
// near-threshold distances are common) with keypoints on a small grid (so
// the consensus keeps some matches and drops others). Query counts include
// odd ones, counts below two per worker and zero, and one train set is
// empty. At need 0, and whenever the scan has need matches, the count and
// the match list are the sequential ones and every pair was compared;
// otherwise the count stays below need.
func TestFannedOutInliersMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cfg := DefaultConfig()
	var scratch [5]matchScratch // one per width, reused across trials
	for trial := 0; trial < 300; trial++ {
		pool := make([]Descriptor, 1+rng.Intn(6))
		for i := range pool {
			pool[i] = Descriptor{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		}
		flips := 1 + rng.Intn(48)
		draw := func(n int) ([]Keypoint, []Descriptor) {
			kps, ds := make([]Keypoint, n), make([]Descriptor, n)
			for i := range ds {
				d := pool[rng.Intn(len(pool))]
				for k := rng.Intn(flips); k > 0; k-- {
					b := rng.Intn(DescriptorBits)
					d[b/64] ^= 1 << uint(b%64)
				}
				kps[i], ds[i] = Keypoint{X: rng.Intn(12), Y: rng.Intn(12)}, d
			}
			return kps, ds
		}
		nq := []int{0, 1, 2, 3, 5, 7, 8, 31, 64, 101}[rng.Intn(10)]
		nt := rng.Intn(80)
		if trial%25 == 0 {
			nt = 0
		}
		kps, descs := draw(nq)
		tkps, tdescs := draw(nt)
		wantMs, exact := inliersRef(kps, descs, tkps, tdescs, &cfg)
		for width := 1; width <= 4; width++ {
			s := &scratch[width]
			s.width = width
			for need := 0; need <= len(wantMs)+2; need++ {
				before := s.pairs
				got := s.inliers(kps, descs, tkps, tdescs, &cfg, need)
				what := fmt.Sprintf("trial %d (%d queries, %d train) width %d need %d", trial, nq, nt, width, need)
				if need > 0 && len(wantMs) < need {
					if got >= need {
						t.Fatalf("%s: %d inliers from %d matches", what, got, len(wantMs))
					}
					continue
				}
				if got != exact || !equalMatches(s.ms, wantMs) {
					t.Fatalf("%s: %d inliers from %v, sequential %d from %v", what, got, s.ms, exact, wantMs)
				}
				if pairs := s.pairs - before; pairs != nq*nt {
					t.Fatalf("%s: compared %d pairs of a complete %d×%d scan", what, pairs, nq, nt)
				}
			}
		}
	}
}

// locRetainedAllocs is what a steady-state tracked frame may allocate: the
// keypoint and descriptor slices the engine keeps (prevKps/prevDescs, and
// the map on a runtime update), and the store's candidate snapshot, which
// the MapStore contract makes the caller's to own.
const locRetainedAllocs = 3

// fixedWidth is an executor of a fixed worker count.
type fixedWidth int

func (w fixedWidth) Workers() int { return int(w) }

// TestAllocLocalizeSteadyState bounds LOC's per-frame allocations on a
// surveyed route to the slices it retains, with the matcher fanned out over
// 1, 2 and 4 workers. The FE runs at one scale, the only one it has, so the
// case is levels=1.
func TestAllocLocalizeSteadyState(t *testing.T) {
	t.Run("levels=1", func(t *testing.T) {
		for _, width := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
				allocLocalizeSteadyState(t, width)
			})
		}
	})
}

func allocLocalizeSteadyState(t *testing.T, width int) {
	cfg := scene.DefaultConfig(scene.Urban)
	cfg.Width, cfg.Height = 512, 256
	gen, err := scene.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(DefaultConfig(), NewPriorMap())
	if err != nil {
		t.Fatal(err)
	}
	eng.SetExecutor(fixedWidth(width))
	for i := 0; i < 80; i++ {
		f := gen.Step()
		eng.Survey(f.Image, f.EgoPose)
	}
	replay, err := scene.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Frames 1..5 warm the engine (cold-start relocalization, then
	// tracking); the measured frames stay inside the surveyed route and
	// short of the first loop-closing scan.
	frames := make([]*img.Gray, 30)
	for i := range frames {
		frames[i] = replay.Step().Image
	}
	for _, f := range frames[:5] {
		eng.Localize(f)
	}
	next := 5
	var lost bool
	allocs := testing.AllocsPerRun(20, func() {
		est := eng.Localize(frames[next])
		lost = lost || !est.Tracked || est.Relocalized
		next++
	})
	if lost {
		t.Fatal("a measured frame lost track; the gate needs steady-state tracking")
	}
	if eng.MapUpdates() != 0 {
		t.Fatalf("%d runtime map updates inside the surveyed route", eng.MapUpdates())
	}
	if width > 1 && len(eng.match.parts) == 0 {
		t.Fatal("the matcher never fanned out")
	}
	if testutil.RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race; make alloc-gate runs this uninstrumented")
	}
	if allocs > locRetainedAllocs {
		t.Errorf("Localize: %.1f allocs/frame on a %d-keyframe map, want <= %d (the retained kps, descs and candidate snapshot)",
			allocs, eng.Store().Len(), locRetainedAllocs)
	}
}

// BenchmarkLOCLoops times each fast path beside its reference on one
// recorded 512×256 scene frame (the matcher on frame 0 against frame 1;
// the blur on frame 0 itself, whose cost does not depend on its pixels).
func BenchmarkLOCLoops(b *testing.B) {
	frames := sceneFrames(b, 2)
	cfg := DefaultConfig()
	var fe FEScratch
	kps := cloneKeypoints(detectFAST(frames[0], cfg.FAST, &fe))
	descs := ComputeAll(frames[0], kps)
	_, other := ExtractFeatures(frames[1], cfg.FAST)
	var ms []Match
	var blurred img.Gray
	var blurWork img.Integral
	for _, bm := range []struct {
		name string
		fn   func()
	}{
		{"blur/fast", func() { frames[0].BoxBlurInto(&blurred, &blurWork, 1) }},
		{"blur/ref", func() { boxBlur3Ref(frames[0]) }},
		{"fast/fast", func() { detectFAST(frames[0], cfg.FAST, &fe) }},
		{"fast/ref", func() { detectFASTRef(frames[0], cfg.FAST) }},
		{"rbrief/fast", func() {
			for _, kp := range kps {
				Compute(frames[0], kp)
			}
		}},
		{"rbrief/ref", func() {
			for _, kp := range kps {
				computeRef(frames[0], kp)
			}
		}},
		{"match/fast", func() { ms, _ = matchInto(ms, descs, other, cfg.MatchMaxDist, cfg.MatchRatio, 0) }},
		{"match/ref", func() { matchDescriptorsRef(descs, other, cfg.MatchMaxDist, cfg.MatchRatio) }},
	} {
		b.Run(bm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bm.fn()
			}
		})
	}
}
