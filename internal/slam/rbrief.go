package slam

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"adsim/internal/img"
	"adsim/internal/stats"
	"adsim/internal/tensor"
)

// DescriptorBits is the rBRIEF descriptor length in binary tests.
const DescriptorBits = 256

// Descriptor is a 256-bit rBRIEF descriptor.
type Descriptor [4]uint64

// Hamming returns the Hamming distance between two descriptors (0..256).
func (d Descriptor) Hamming(o Descriptor) int {
	return bits.OnesCount64(d[0]^o[0]) + bits.OnesCount64(d[1]^o[1]) +
		bits.OnesCount64(d[2]^o[2]) + bits.OnesCount64(d[3]^o[3])
}

// PatchRadius bounds the sampling pattern: all test points lie within this
// radius of the keypoint, so keypoints need a PatchRadius+rotation margin
// from the image border.
const PatchRadius = 13

// briefPattern is the fixed 256-pair sampling pattern, generated
// deterministically at package init from a Gaussian-like distribution, as
// BRIEF does. The same pattern LUT is what the paper's FPGA and ASIC FE
// implementations store on-chip (their "Pattern LUT (256 x 4)").
var briefPattern [DescriptorBits][4]int8

// rotationLUT holds the pattern pre-rotated at 30 discretized angles
// (ORB quantizes orientation to 2π/30 steps to avoid per-keypoint
// trigonometry — the same trick the paper's hardware uses via sin/cos LUTs).
const rotationSteps = 30

var rotationLUT [rotationSteps][DescriptorBits][4]int8

func init() {
	rng := stats.NewRNG(0xB21EF) // fixed pattern seed
	for i := range briefPattern {
		for j := 0; j < 4; j++ {
			// Approximate N(0, r/2) by averaging uniforms, clamped.
			v := (rng.Uniform(-1, 1) + rng.Uniform(-1, 1) + rng.Uniform(-1, 1)) / 3 * PatchRadius
			if v > PatchRadius-1 {
				v = PatchRadius - 1
			}
			if v < -(PatchRadius - 1) {
				v = -(PatchRadius - 1)
			}
			briefPattern[i][j] = int8(v)
		}
	}
	for s := 0; s < rotationSteps; s++ {
		angle := 2 * math.Pi * float64(s) / rotationSteps
		sin, cos := math.Sin(angle), math.Cos(angle)
		for i, p := range briefPattern {
			for pt := 0; pt < 2; pt++ {
				x, y := float64(p[2*pt]), float64(p[2*pt+1])
				rx := cos*x - sin*y
				ry := sin*x + cos*y
				rotationLUT[s][i][2*pt] = int8(math.Round(rx))
				rotationLUT[s][i][2*pt+1] = int8(math.Round(ry))
			}
		}
	}
	for s := range rotationLUT {
		for _, p := range rotationLUT[s] {
			for _, c := range p {
				briefMargin = max(briefMargin, int(c), -int(c))
			}
		}
	}
}

// briefMargin is the largest coordinate magnitude of any rotated pattern
// point, measured from rotationLUT at init: a keypoint at least this far
// from every image edge has all 512 of its taps in bounds, whatever its
// angle.
var briefMargin int

// Compute returns the rBRIEF descriptor for one oriented keypoint: the
// sampling pattern is rotated to the keypoint's angle (via the discretized
// rotation LUT) and each bit is the binary intensity test I(p1) < I(p2).
// A keypoint at least briefMargin from every edge reads its taps straight
// from Pix; one nearer the border reads outside pixels as 0 (Gray.At).
func Compute(im *img.Gray, kp Keypoint) Descriptor {
	step := int(math.Round(kp.Angle/(2*math.Pi/rotationSteps))) % rotationSteps
	if step < 0 {
		step += rotationSteps
	}
	pattern := &rotationLUT[step]
	m := briefMargin
	if kp.X < m || kp.Y < m || kp.X+m >= im.W || kp.Y+m >= im.H {
		return computeClipped(im, kp, pattern)
	}
	w := im.W
	center := kp.Y*w + kp.X
	patch := im.Pix[center-m*w-m : center+m*w+m+1]
	center = m*w + m
	var d Descriptor
	for k := range d {
		var word uint64
		for b, p := range pattern[64*k : 64*k+64] {
			a := int(patch[center+int(p[1])*w+int(p[0])])
			c := int(patch[center+int(p[3])*w+int(p[2])])
			word |= uint64(a-c) >> 63 << uint(b) // the sign bit of a-c is a < c
		}
		d[k] = word
	}
	return d
}

// computeClipped is Compute for a keypoint whose pattern may reach past the
// image border.
func computeClipped(im *img.Gray, kp Keypoint, pattern *[DescriptorBits][4]int8) Descriptor {
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

// ComputeAll extracts descriptors for all keypoints.
func ComputeAll(im *img.Gray, kps []Keypoint) []Descriptor {
	out := make([]Descriptor, len(kps))
	for i, kp := range kps {
		out[i] = Compute(im, kp)
	}
	return out
}

// Match is one descriptor correspondence between two sets.
type Match struct {
	QueryIdx, TrainIdx int
	Distance           int
}

// GeometricInliers counts the matches whose image-space displacement agrees
// with the consensus (median) displacement within tol pixels in both axes.
// This is the verification step that rejects aliased matches from
// self-similar scenery: random false matches scatter in displacement space
// and fail the consensus test, while a true re-observation of the same
// place yields a tight displacement cluster. (ORB-SLAM uses RANSAC-verified
// pose estimation for the same purpose.)
func GeometricInliers(qkps, tkps []Keypoint, ms []Match, tol int) int {
	var s matchScratch
	return s.geometricInliers(qkps, tkps, ms, tol)
}

// matchScratch holds the matcher's reusable buffers: the match list,
// GeometricInliers' displacement columns, and the per-range counts of a
// fanned-out match. pairs counts the query×train descriptor pairs its
// matches have compared, the work the need bound saves; tests read it. Above
// width 1 a scan that gives up stops each range wherever the shared bound
// finds it, so the count then depends on scheduling; the outcome does not.
// Not safe for concurrent use.
type matchScratch struct {
	ms       []Match
	dxs, dys []int
	pairs    int

	width int            // workers a match fans out over; ≤ 1 matches on the caller alone
	parts []matchPart    // one per range, grown on demand
	run   func(w, i int) // s.runRange as a method value, built once
	call  matchCall      // the fanned-out match's inputs, read by every range
}

// matchRangesPerWorker is how many query ranges a fanned-out match makes
// per worker. Ranges are claimed as workers come free, so when the other
// branch of the frame (DET+TRA) holds a core for part of a match, finer
// ranges let that core take its share once it is released (DESIGN.md §6,
// "Matcher fan-out", has the measurement).
const matchRangesPerWorker = 4

// matchPart counts one query range's matches and the queries it scanned.
type matchPart struct{ matched, scanned int }

// matchCall is one fanned-out match: the sets, the acceptance gate, the
// even range length span, and matchRange's shared bound and rejection count.
type matchCall struct {
	query, train []Descriptor
	maxDist      int
	ratio        float64
	span, bound  int
	rejected     atomic.Int64
}

// inliers matches descs against a keyframe's tdescs and returns the
// geometrically verified count, building everything in s. Verified matches
// are a subset of the matches, so once the matcher shows fewer than need
// matches are still possible the keyframe cannot reach need inliers: the
// scan stops and 0 is returned (need ≥ 1 whenever that happens). need ≤ 0
// always gets the exact count.
func (s *matchScratch) inliers(kps []Keypoint, descs []Descriptor, tkps []Keypoint, tdescs []Descriptor, cfg *Config, need int) int {
	scanned := s.match(descs, tdescs, cfg.MatchMaxDist, cfg.MatchRatio, need)
	s.pairs += scanned * len(tdescs)
	if scanned < len(descs) {
		return 0
	}
	return s.geometricInliers(kps, tkps, s.ms, cfg.InlierTol)
}

// match is matchInto(s.ms, …) over s.width workers: the queries split into
// contiguous ranges of even length, matchRangesPerWorker per worker, which
// tensor.Each's workers claim one at a time. A range yields at most one
// match per query, so range [lo,hi) appends into s.ms[lo:hi], and the
// ranges' matches are then closed up in query order. A query's nearest
// pair depends on the query and train alone, and an even range start keeps
// every query in the pair it has in one scan, so a complete result is the
// one-range result at any width. The ranges share one count of queries
// left unmatched and each gives up once it exceeds len(query) − need: the
// count only ever holds part of what a full scan leaves unmatched, so a set
// with need matches is always scanned whole, and one that gives up has
// fewer, as in one range. It returns the queries scanned over all ranges.
func (s *matchScratch) match(query, train []Descriptor, maxDist int, ratio float64, need int) int {
	workers := max(s.width, 1)
	ranges := workers
	if workers > 1 {
		ranges *= matchRangesPerWorker
	}
	span := (len(query) + ranges - 1) / ranges
	span += span & 1
	n := 0
	if span > 0 {
		n = (len(query) + span - 1) / span
	}
	if n <= 1 || len(train) == 0 {
		var scanned int
		s.ms, scanned = matchInto(s.ms, query, train, maxDist, ratio, need)
		return scanned
	}
	for len(s.parts) < n {
		s.parts = append(s.parts, matchPart{})
	}
	if s.run == nil {
		s.run = s.runRange
	}
	s.ms = slices.Grow(s.ms[:0], len(query))[:len(query)]
	c := &s.call
	c.query, c.train, c.maxDist, c.ratio = query, train, maxDist, ratio
	c.span, c.bound = span, len(query)-need
	c.rejected.Store(0)
	tensor.Each(n, workers, s.run)
	c.query, c.train = nil, nil
	matched, scanned := 0, 0
	for i, p := range s.parts[:n] {
		matched += copy(s.ms[matched:], s.ms[i*span:i*span+p.matched])
		scanned += p.scanned
	}
	s.ms = s.ms[:matched]
	return scanned
}

// runRange matches query range i of the current call into its slots of
// s.ms.
func (s *matchScratch) runRange(_, i int) {
	c := &s.call
	lo := i * c.span
	hi := min(lo+c.span, len(c.query))
	ms, scanned := matchRange(s.ms[lo:lo:hi], c.query, c.train, lo, hi, c.maxDist, c.ratio, &c.rejected, c.bound)
	s.parts[i] = matchPart{matched: len(ms), scanned: scanned}
}

// geometricInliers is GeometricInliers with its displacement columns in s.
func (s *matchScratch) geometricInliers(qkps, tkps []Keypoint, ms []Match, tol int) int {
	if len(ms) == 0 {
		return 0
	}
	s.dxs = slices.Grow(s.dxs[:0], len(ms))[:len(ms)]
	s.dys = slices.Grow(s.dys[:0], len(ms))[:len(ms)]
	dxs, dys := s.dxs, s.dys
	for i, m := range ms {
		dxs[i] = qkps[m.QueryIdx].X - tkps[m.TrainIdx].X
		dys[i] = qkps[m.QueryIdx].Y - tkps[m.TrainIdx].Y
	}
	medDx := medianInt(dxs)
	medDy := medianInt(dys)
	inliers := 0
	for i := range ms {
		dx, dy := dxs[i]-medDx, dys[i]-medDy
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		if dx <= tol && dy <= tol {
			inliers++
		}
	}
	return inliers
}

// medianInt returns the median of vs (lower middle for even lengths).
// vs is modified (sorted).
func medianInt(vs []int) int {
	slices.Sort(vs)
	return vs[len(vs)/2]
}

// MatchDescriptors brute-force matches query descriptors against train
// descriptors with Lowe-style acceptance: a match is kept when the best
// distance is below maxDist and strictly better than ratio × second-best.
func MatchDescriptors(query, train []Descriptor, maxDist int, ratio float64) []Match {
	ms, _ := matchInto(nil, query, train, maxDist, ratio, 0)
	return ms
}

// matchInto is MatchDescriptors appending to dst[:0], with need's early
// exit: scanned is the number of queries matched against train. A caller
// that only needs to know whether the result holds at least need matches
// gets scanned < len(query), and a partial dst, as soon as the matches so
// far plus the queries not yet scanned fall below need, i.e. once more than
// len(query) − need queries went unmatched; every complete result has
// scanned = len(query), whatever its length.
func matchInto(dst []Match, query, train []Descriptor, maxDist int, ratio float64, need int) (ms []Match, scanned int) {
	var rejected atomic.Int64
	return matchRange(dst[:0], query, train, 0, len(query), maxDist, ratio, &rejected, len(query)-need)
}

// matchRange matches queries [lo,hi) against train, appending to dst with
// QueryIdx indexing query, and returns the queries it scanned. Queries are
// taken two at a time against each train descriptor, read in place: every
// train load then serves eight popcounts instead of four, and the loop's
// bookkeeping (which the popcount fallback calls force through the stack)
// is paid once per two distances. Each query keeps its own nearest pair,
// updated in the plain loop's train order, so the first-wins tie on bestIdx
// is unchanged; an odd last query is paired with itself and its twin
// discarded.
//
// best and second start at matchCap(maxDist, ratio) instead of
// DescriptorBits+1: a distance at or above the cap can neither be accepted
// as best nor make an accepted best fail the ratio test, so clamping every
// such distance to the cap leaves the output unchanged, and the d < second
// test that gates each update becomes almost never true.
//
// Every query left unmatched is added to rejected, which other ranges of
// the same query set may share, and the scan gives up before the next pair
// once rejected exceeds bound.
func matchRange(dst []Match, query, train []Descriptor, lo, hi, maxDist int, ratio float64, rejected *atomic.Int64, bound int) (ms []Match, scanned int) {
	if len(train) == 0 {
		return dst, hi - lo
	}
	limit := matchCap(maxDist, ratio)
	for qi := lo; qi < hi; qi += 2 {
		if rejected.Load() > int64(bound) {
			return dst, qi - lo
		}
		qa, qb := &query[qi], &query[qi]
		if qi+1 < hi {
			qb = &query[qi+1]
		}
		a := nearestPair{best: limit, second: limit, idx: -1}
		b := a
		for ti := range train {
			t := &train[ti]
			a.add(hamming(qa, t), ti)
			b.add(hamming(qb, t), ti)
		}
		missed := int64(0)
		if a.accepted(maxDist, ratio) {
			dst = append(dst, Match{QueryIdx: qi, TrainIdx: a.idx, Distance: a.best})
		} else {
			missed++
		}
		if qi+1 < hi {
			if b.accepted(maxDist, ratio) {
				dst = append(dst, Match{QueryIdx: qi + 1, TrainIdx: b.idx, Distance: b.best})
			} else {
				missed++
			}
		}
		if missed > 0 {
			rejected.Add(missed)
		}
	}
	return dst, hi - lo
}

// hamming is Descriptor.Hamming on pointers, so the matcher's inner loop
// copies no 32-byte values.
func hamming(q, t *Descriptor) int {
	return bits.OnesCount64(q[0]^t[0]) + bits.OnesCount64(q[1]^t[1]) +
		bits.OnesCount64(q[2]^t[2]) + bits.OnesCount64(q[3]^t[3])
}

// nearestPair tracks one query's best and second-best train distance and
// the first train index at the best.
type nearestPair struct{ best, second, idx int }

// add offers train descriptor ti at distance d. best ≤ second always holds,
// so testing d < second first lets the common far candidate cost one
// compare.
func (n *nearestPair) add(d, ti int) {
	if d < n.second {
		if d < n.best {
			n.second, n.best, n.idx = n.best, d, ti
		} else {
			n.second = d
		}
	}
}

// accepted is the Lowe-style test: best within maxDist and strictly better
// than ratio × second.
func (n *nearestPair) accepted(maxDist int, ratio float64) bool {
	return n.best <= maxDist && float64(n.best) < ratio*float64(n.second)
}

// matchCap is the smallest distance c with c > maxDist and
// ratio·c > maxDist, or DescriptorBits+1 when no distance qualifies. A best
// distance ≥ c fails maxDist; a second-best ≥ c passes the ratio test for
// any best ≤ maxDist, since ratio·second ≥ ratio·c when ratio ≥ 0 (with a
// negative ratio a c qualifies only when maxDist < 0, and then nothing is
// accepted). So both can be clamped to c.
func matchCap(maxDist int, ratio float64) int {
	for c := 0; c <= DescriptorBits; c++ {
		if c > maxDist && ratio*float64(c) > float64(maxDist) {
			return c
		}
	}
	return DescriptorBits + 1
}
