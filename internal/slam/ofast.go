// Package slam implements the localization engine (LOC) of the pipeline —
// the paper's ORB-SLAM stage. It contains the full front-end the paper's
// FPGA/ASIC sections accelerate (oFAST feature detection and rBRIEF
// descriptor extraction), a prior-map keyframe database, motion-model
// tracking, relocalization on tracking loss, local map update and periodic
// loop closing.
//
// The paper's key performance observation about LOC — large latency
// variability caused by relocalization's wider map search, which is why tail
// latency must be the evaluation metric — is reproduced behaviourally: a
// lost tracker really does search a strictly larger candidate set here.
package slam

import (
	"math"

	"adsim/internal/img"
)

// circleOffsets16 is the Bresenham circle of radius 3 used by FAST: 16
// (dx,dy) offsets in clockwise order starting from (0,-3).
var circleOffsets16 = [16][2]int{
	{0, -3}, {1, -3}, {2, -2}, {3, -1},
	{3, 0}, {3, 1}, {2, 2}, {1, 3},
	{0, 3}, {-1, 3}, {-2, 2}, {-3, 1},
	{-3, 0}, {-3, -1}, {-2, -2}, {-1, -3},
}

// Keypoint is one detected oFAST feature.
type Keypoint struct {
	X, Y  int
	Score int     // corner response used for non-maximum suppression
	Angle float64 // orientation from the intensity centroid, radians
	Level int     // pyramid level; FE extracts at 0 (full res), ADM1 maps store it
}

// FASTConfig parameterizes the oFAST detector.
type FASTConfig struct {
	// Threshold is the minimum absolute intensity difference for a circle
	// pixel to count as brighter/darker than the center.
	Threshold int
	// ContigMin is the required run of contiguous circle pixels (FAST-9
	// uses 9).
	ContigMin int
	// MaxFeatures caps the number of keypoints returned (strongest first);
	// 0 means unlimited.
	MaxFeatures int
	// Border excludes keypoints within this many pixels of the frame edge
	// so the descriptor patch always fits. Must be >= PatchRadius+1.
	Border int
}

// DefaultFASTConfig returns the standard oFAST configuration (FAST-9-16
// with threshold 20, ORB-style).
func DefaultFASTConfig() FASTConfig {
	return FASTConfig{Threshold: 20, ContigMin: 9, MaxFeatures: 500, Border: 16}
}

// DetectFAST runs the oFAST detector: FAST-9 segment-test corners with a
// 3×3 non-maximum suppression, each keypoint assigned an intensity-centroid
// orientation. Keypoints are returned strongest first.
func DetectFAST(im *img.Gray, cfg FASTConfig) []Keypoint {
	return detectFAST(im, cfg, &FEScratch{}) // a fresh scratch: nothing else holds its kps
}

// cloneKeypoints returns an exact-size copy of kps (nil when empty), for
// callers that retain keypoints built in scratch memory.
func cloneKeypoints(kps []Keypoint) []Keypoint {
	if len(kps) == 0 {
		return nil
	}
	return append(make([]Keypoint, 0, len(kps)), kps...)
}

// detectFAST is DetectFAST building everything in s: the score map, the
// candidate list and the returned keypoints, which alias s.kps and are
// only valid until the next call — callers that retain them copy first.
//
// The score map is all zero between calls: a call writes only the entries
// it lists in s.cands and zeroes exactly those before returning, so no
// frame pays to clear the whole map, and non-maximum suppression visits
// only the scored pixels, in row-major order as a full scan would.
func detectFAST(im *img.Gray, cfg FASTConfig, s *FEScratch) []Keypoint {
	if cfg.ContigMin <= 0 || cfg.ContigMin > 16 {
		cfg.ContigMin = 9
	}
	if cfg.Border < 4 {
		cfg.Border = 4
	}
	w, h := im.W, im.H
	if cap(s.scores) < w*h {
		s.scores = make([]int32, w*h)
	}
	scores := s.scores[:w*h]
	cands := s.cands[:0]
	pix := im.Pix
	circle := circleFlat(w)
	t := cfg.Threshold

	for y := cfg.Border; y < h-cfg.Border; y++ {
		row := y * w
		up := pix[row-3*w : row-2*w]
		cur := pix[row : row+w]
		down := pix[row+3*w : row+4*w]
		for x := cfg.Border; x < w-cfg.Border; x++ {
			// Compass pre-test: any contiguous run of >= 9 among the 16
			// circle positions must include one of {0,8} (top/bottom) AND
			// one of {4,12} (right/left) — each pair is 8 apart, and 9
			// consecutive positions always span one of each. Checking those
			// four pixels first rejects the overwhelmingly common flat case
			// with 4 loads instead of 16; it is a pure necessary condition,
			// so surviving candidates produce bitwise-identical scores.
			if cfg.ContigMin >= 9 {
				c := int(cur[x])
				d0 := int(up[x]) - c
				d8 := int(down[x]) - c
				d4 := int(cur[x+3]) - c
				d12 := int(cur[x-3]) - c
				bright := (d0 > t || d8 > t) && (d4 > t || d12 > t)
				dark := (d0 < -t || d8 < -t) && (d4 < -t || d12 < -t)
				if !bright && !dark {
					continue
				}
			}
			if sc := fastScore(pix, row+x, &circle, t, cfg.ContigMin); sc > 0 {
				scores[row+x] = int32(sc)
				cands = append(cands, int32(row+x))
			}
		}
	}

	// 3×3 non-maximum suppression: a candidate survives when it beats its
	// four raster-earlier neighbours strictly and is not beaten by its
	// four later ones, so of two equal neighbours the earlier one wins.
	kps := s.kps[:0]
	for _, ci := range cands {
		i := int(ci)
		v := scores[i]
		if scores[i-w-1] >= v || scores[i-w] >= v || scores[i-w+1] >= v || scores[i-1] >= v ||
			scores[i+1] > v || scores[i+w-1] > v || scores[i+w] > v || scores[i+w+1] > v {
			continue
		}
		kps = append(kps, Keypoint{X: i % w, Y: i / w, Score: int(v)})
	}
	for _, ci := range cands {
		scores[ci] = 0
	}
	s.cands, s.kps = cands, kps

	// Strongest first; deterministic order for equal scores.
	sortKeypoints(kps)
	if cfg.MaxFeatures > 0 && len(kps) > cfg.MaxFeatures {
		kps = kps[:cfg.MaxFeatures]
	}

	// Orientation assignment (the "o" in oFAST): intensity centroid over a
	// radius-7 disc.
	for i := range kps {
		kps[i].Angle = orientation(im, kps[i].X, kps[i].Y, 7)
	}
	return kps
}

// circleFlat returns circleOffsets16 as flat pixel offsets for row stride w.
func circleFlat(w int) [16]int {
	var flat [16]int
	for i, off := range circleOffsets16 {
		flat[i] = off[1]*w + off[0]
	}
	return flat
}

// fastScore runs the FAST segment test at flat pixel index p, whose circle
// taps lie at p+circle[i], and returns a corner score (sum of absolute
// differences of the qualifying arc) or 0 if not a corner.
func fastScore(pix []uint8, p int, circle *[16]int, threshold, contigMin int) int {
	c := int(pix[p])
	var bright, dark uint32 // bitmasks over the 16 circle positions
	score := 0
	for i, off := range circle {
		d := int(pix[p+off]) - c
		if d > threshold {
			bright |= 1 << uint(i)
		} else if d < -threshold {
			dark |= 1 << uint(i)
		}
		if d < 0 {
			d = -d
		}
		if d > threshold {
			score += d - threshold
		}
	}
	if !hasContigRun(bright, contigMin) && !hasContigRun(dark, contigMin) {
		return 0
	}
	return score
}

// hasContigRun reports whether the 16-bit circular mask contains a run of at
// least n consecutive set bits (with wraparound).
func hasContigRun(mask uint32, n int) bool {
	if mask == 0 {
		return false
	}
	// Duplicate the 16-bit pattern to handle wraparound runs, then collapse
	// runs with the shift-and-AND doubling trick: after ANDing with the
	// pattern shifted by k, a set bit proves a run of k+1 ending there.
	// log(n) word ops replace the old 32-iteration bit scan.
	ext := uint64(mask) | uint64(mask)<<16
	remaining := n - 1
	shift := 1
	for remaining > 0 && ext != 0 {
		s := shift
		if s > remaining {
			s = remaining
		}
		ext &= ext << uint(s)
		remaining -= s
		shift *= 2
	}
	return ext != 0
}

// orientation computes the intensity-centroid angle atan2(m01, m10) over a
// disc of the given radius, as ORB does (rotation-invariant descriptors).
// A disc inside the image is summed straight from Pix, one row span at a
// time; one that crosses the border reads outside pixels as 0 (Gray.At).
// Both sums are exact integers, so the two paths agree bit for bit.
func orientation(im *img.Gray, x, y, radius int) float64 {
	if x < radius || y < radius || x+radius >= im.W || y+radius >= im.H {
		return orientationClipped(im, x, y, radius)
	}
	var m01, m10 int64
	for dy := -radius; dy <= radius; dy++ {
		half := radius // the disc's half-width on this row
		for half*half+dy*dy > radius*radius {
			half--
		}
		start := (y+dy)*im.W + x - half
		var sum, moment int64
		for j, v := range im.Pix[start : start+2*half+1] {
			sum += int64(v)
			moment += int64(j) * int64(v)
		}
		m10 += moment - int64(half)*sum
		m01 += int64(dy) * sum
	}
	return math.Atan2(float64(m01), float64(m10))
}

// orientationClipped is orientation for a disc that crosses the image
// border.
func orientationClipped(im *img.Gray, x, y, radius int) float64 {
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

// sortKeypoints orders keypoints by descending score, breaking ties by
// (y,x) for determinism. It is a shell sort: in place, allocation-free and
// adequate for a few thousand keypoints; kpLess is a total order on
// distinct positions, so the result does not depend on the input order.
func sortKeypoints(kps []Keypoint) {
	n := len(kps)
	for gap := n / 2; gap > 0; gap /= 2 {
		for i := gap; i < n; i++ {
			k := kps[i]
			j := i
			for ; j >= gap && kpLess(k, kps[j-gap]); j -= gap {
				kps[j] = kps[j-gap]
			}
			kps[j] = k
		}
	}
}

func kpLess(a, b Keypoint) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.X < b.X
}
