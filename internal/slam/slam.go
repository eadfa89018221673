package slam

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"adsim/internal/img"
	"adsim/internal/scene"
)

// Config parameterizes the localization engine.
type Config struct {
	FAST FASTConfig
	// KeyframeSpacing is the survey keyframe pitch in meters.
	KeyframeSpacing float64
	// TrackWindow is the ± candidate search window (meters) around the
	// motion-model prediction during normal tracking.
	TrackWindow float64
	// RelocWindow is the ± search window during relocalization. The
	// paper's LOC tail latency comes from this being much larger.
	RelocWindow float64
	// MinMatches is the geometrically-verified match (inlier) count below
	// which tracking is lost.
	MinMatches int
	// InlierTol is the displacement-consensus tolerance in pixels for
	// geometric match verification.
	InlierTol int
	// MatchMaxDist and MatchRatio gate descriptor matching.
	MatchMaxDist int
	MatchRatio   float64
	// LoopCloseEvery triggers a loop-closing scan every N frames
	// (0 disables).
	LoopCloseEvery int
	// LoopCloseMinGap is the minimum longitudinal separation (meters) for
	// a match to count as a loop closure rather than normal tracking.
	LoopCloseMinGap float64
}

// DefaultConfig returns the standard LOC configuration.
func DefaultConfig() Config {
	return Config{
		FAST:            DefaultFASTConfig(),
		KeyframeSpacing: 2.0,
		TrackWindow:     6.0,
		RelocWindow:     1e9, // whole map: worst-case wide search
		MinMatches:      40,
		InlierTol:       3,
		MatchMaxDist:    48,
		MatchRatio:      0.85,
		LoopCloseEvery:  50,
		LoopCloseMinGap: 100,
	}
}

// Timing reports where one Localize call spent its time, mirroring the
// paper's Fig 7 breakdown: FE (oFAST + rBRIEF feature extraction) versus
// everything else (matching, pose update, map maintenance).
type Timing struct {
	FE    time.Duration
	Other time.Duration
}

// Estimate is one localization result.
type Estimate struct {
	Pose scene.Pose
	// Tracked is false when neither tracking nor relocalization found
	// enough matches and the pose is dead-reckoned from the motion model.
	Tracked bool
	// Relocalized is true when this frame required the wide-search
	// relocalization path (the latency-spike path).
	Relocalized bool
	// Matches is the number of descriptor matches supporting the pose.
	Matches int
	// LoopClosed is true when the periodic loop-closing scan confirmed a
	// revisit this frame.
	LoopClosed bool
	// Stale is true when this estimate never came from the localizer at
	// all: the pipeline's deadline layer extrapolated it from the motion
	// model (PredictPose) because LOC blew its budget this frame.
	Stale bool
}

// Engine is the LOC engine. Not safe for concurrent use itself — but its
// MapStore is, so several engines (concurrent LOC replicas) may share one
// store.
type Engine struct {
	cfg   Config
	store MapStore

	havePose  bool
	lastPose  scene.Pose
	velocity  float64 // longitudinal m/frame from the constant-motion model
	frame     int
	lost      bool
	prevKps   []Keypoint   // previous frame's keypoints (visual odometry)
	prevDescs []Descriptor // previous frame's descriptors (visual odometry)

	// Stats counters.
	relocalizations int
	loopClosures    int
	mapUpdates      int

	// exec sets the matcher's fan-out width (SetExecutor); nil is width 1.
	exec interface{ Workers() int }

	// Reusable buffers (the engine is single-goroutine; the matcher's
	// query ranges each write their own slots).
	fe    FEScratch
	match matchScratch
	order []int // bestKeyframe's visit order
}

// NewEngine builds a localization engine over a monolithic in-memory prior
// map. The map may be empty (e.g. during a survey run that populates it).
func NewEngine(cfg Config, m *PriorMap) (*Engine, error) {
	if m == nil {
		return nil, fmt.Errorf("slam: nil prior map")
	}
	return NewEngineStore(cfg, m)
}

// NewEngineStore builds a localization engine over any prior-map store —
// in particular a ShardStore, whose tiles page in lazily so the map's
// resident set stays bounded.
func NewEngineStore(cfg Config, store MapStore) (*Engine, error) {
	if store == nil {
		return nil, fmt.Errorf("slam: nil map store")
	}
	if cfg.KeyframeSpacing <= 0 {
		return nil, fmt.Errorf("slam: KeyframeSpacing %v must be positive", cfg.KeyframeSpacing)
	}
	if cfg.MinMatches <= 0 {
		return nil, fmt.Errorf("slam: MinMatches %v must be positive", cfg.MinMatches)
	}
	if cfg.TrackWindow <= 0 || cfg.RelocWindow < cfg.TrackWindow {
		return nil, fmt.Errorf("slam: windows invalid (track %v, reloc %v)", cfg.TrackWindow, cfg.RelocWindow)
	}
	return &Engine{cfg: cfg, store: store}, nil
}

// Map returns the engine's prior map when its store is a monolithic
// in-memory PriorMap, and nil otherwise (use Store for the general case).
func (e *Engine) Map() *PriorMap {
	pm, _ := e.store.(*PriorMap)
	return pm
}

// Store returns the engine's prior-map store.
func (e *Engine) Store() MapStore { return e.store }

// SetExecutor fans every descriptor match the engine makes (tracking,
// odometry, relocalization and loop closing) out over exec's Workers()
// workers, read once per frame; a nil exec, the default, matches on the
// caller's goroutine. Estimates are bitwise the same at any width. Call it
// while no Localize is in flight.
func (e *Engine) SetExecutor(exec interface{ Workers() int }) { e.exec = exec }

// PredictPose extrapolates the current pose one frame ahead with the
// constant-motion model, without touching engine state — the same
// prediction localizeFrom starts from. The pipeline's deadline layer uses
// it as the degraded-mode (stale) pose when a Localize call exceeds its
// budget; it must only be called while the engine is quiescent (no
// Localize in flight).
func (e *Engine) PredictPose() scene.Pose {
	p := e.lastPose
	p.Z += e.velocity
	return p
}

// Relocalizations reports how many frames required the wide-search path.
func (e *Engine) Relocalizations() int { return e.relocalizations }

// LoopClosures reports confirmed loop-closure events.
func (e *Engine) LoopClosures() int { return e.loopClosures }

// MapUpdates reports keyframes added by local mapping at runtime.
func (e *Engine) MapUpdates() int { return e.mapUpdates }

// FEScratch holds the FE stage's reusable working buffers: the smoothed
// image and its blur workspace, the FAST score map and candidate list, and
// the keypoints a frame builds before its exact-size copy. The returned
// keypoints/descriptors never alias scratch memory (callers retain them
// across frames); only transient intermediates are reused. Not safe for
// concurrent use.
type FEScratch struct {
	smoothed img.Gray
	integral img.Integral
	scores   []int32    // FAST scores by pixel; all zero between calls
	cands    []int32    // flat indices of this call's non-zero scores
	kps      []Keypoint // detectFAST's result for the current image
}

// ExtractFeatures runs the FE stage (oFAST + rBRIEF) on a frame. Exposed so
// survey runs and benchmarks exercise exactly the code the engine uses.
func ExtractFeatures(frame *img.Gray, cfg FASTConfig) ([]Keypoint, []Descriptor) {
	return ExtractFeaturesScratch(frame, cfg, nil)
}

// ExtractFeaturesScratch is ExtractFeatures drawing its intermediates from
// s (nil uses a throwaway scratch). Results are bitwise-identical to
// ExtractFeatures.
func ExtractFeaturesScratch(frame *img.Gray, cfg FASTConfig, s *FEScratch) ([]Keypoint, []Descriptor) {
	if s == nil {
		s = &FEScratch{}
	}
	smoothed := frame.BoxBlurInto(&s.smoothed, &s.integral, 1)
	kps := cloneKeypoints(detectFAST(smoothed, cfg, s))
	return kps, ComputeAll(smoothed, kps)
}

// extract runs the FE stage on the engine's scratch.
func (e *Engine) extract(frame *img.Gray) ([]Keypoint, []Descriptor) {
	return ExtractFeaturesScratch(frame, e.cfg.FAST, &e.fe)
}

// Survey adds a keyframe for a frame observed at a known pose if the map
// has no keyframe within KeyframeSpacing of it. Used to build prior maps
// from ground-truth scenario runs — the offline "map provider" role.
func (e *Engine) Survey(frame *img.Gray, pose scene.Pose) bool {
	if kf, ok := e.store.NearestZ(pose.Z); ok {
		dz := kf.Pose.Z - pose.Z
		if dz < 0 {
			dz = -dz
		}
		if dz < e.cfg.KeyframeSpacing {
			return false
		}
	}
	kps, descs := e.extract(frame)
	e.store.Add(pose, kps, descs)
	return true
}

// Localize estimates the vehicle pose from one camera frame against the
// prior map, updating the engine's motion model and (when needed) running
// relocalization, local mapping and loop closing. Use LocalizeTimed when
// the call's time breakdown is needed.
func (e *Engine) Localize(frame *img.Gray) Estimate {
	est, _ := e.LocalizeTimed(frame)
	return est
}

// LocalizeTimed is Localize with the call's FE-vs-other time breakdown
// returned alongside the estimate. Returning the timing (instead of the old
// LastTiming accessor) means a pipelined frame N+1 can never overwrite the
// breakdown frame N is about to read.
func (e *Engine) LocalizeTimed(frame *img.Gray) (Estimate, Timing) {
	e.frame++
	e.match.width = 1
	if e.exec != nil {
		e.match.width = e.exec.Workers()
	}

	// --- FE stage (dominates LOC compute; Fig 7: 85.9%). ---
	feStart := time.Now()
	kps, descs := e.extract(frame)
	feDur := time.Since(feStart)

	otherStart := time.Now()
	est := e.localizeFrom(kps, descs)
	e.prevKps, e.prevDescs = kps, descs

	// Local mapping: extend the map when tracking confidently in
	// unsurveyed territory (the paper's "map update" path).
	if est.Tracked {
		if kf, ok := e.store.NearestZ(est.Pose.Z); !ok ||
			abs(kf.Pose.Z-est.Pose.Z) >= e.cfg.KeyframeSpacing {
			e.store.Add(est.Pose, kps, descs)
			e.mapUpdates++
		}
	}

	// Periodic loop closing: match against keyframes far from the current
	// position; a strong distant match is a trajectory-loop detection and
	// the pose is re-anchored to the matched keyframe (the map-frame
	// correction a full pose-graph optimizer would produce).
	if e.cfg.LoopCloseEvery > 0 && e.frame%e.cfg.LoopCloseEvery == 0 && est.Tracked {
		// A closure must be supported by strictly more verified inliers
		// than the current local anchor (and at least 2x MinMatches):
		// re-anchoring on weaker evidence than tracking already has would
		// let perceptual aliasing teleport the pose.
		minScore := 2 * e.cfg.MinMatches
		if est.Matches+1 > minScore {
			minScore = est.Matches + 1
		}
		if kf, ok := e.detectLoop(kps, descs, est.Pose, minScore); ok {
			est.LoopClosed = true
			est.Pose = kf.Pose
			e.lastPose = kf.Pose // re-anchor; velocity model is preserved
			e.loopClosures++
		}
	}

	return est, Timing{FE: feDur, Other: time.Since(otherStart)}
}

// localizeFrom runs the matching cascade: motion-model windowed tracking,
// then relocalization over the whole map on failure.
func (e *Engine) localizeFrom(kps []Keypoint, descs []Descriptor) Estimate {
	predicted := e.lastPose
	predicted.Z += e.velocity

	// Tracking attempt: narrow window around the prediction (skipped when
	// no pose is known yet — cold start relocalizes).
	if e.havePose && !e.lost {
		if est, ok := e.track(kps, descs, predicted); ok {
			e.commitPose(est.Pose)
			return est
		}
		e.lost = true
	}

	// Relocalization: strictly wider search (the tail-latency path). The
	// whole-map case streams through the store's Scan, so a sharded store
	// pages tiles through its cache instead of materializing the map.
	e.relocalizations++
	sc := scorer{e: e, kps: kps, descs: descs}
	if e.cfg.RelocWindow >= 1e9 {
		e.store.Scan(func(kf Keyframe) bool { sc.consider(kf); return true })
	} else {
		for _, kf := range e.store.Candidates(predicted.Z, e.cfg.RelocWindow) {
			sc.consider(kf)
		}
	}
	if kf, matches, ok := sc.result(e.cfg.MinMatches); ok {
		pose := e.refinePose(kf, predicted)
		e.commitPose(pose)
		e.lost = false
		return Estimate{Pose: pose, Tracked: true, Relocalized: true, Matches: matches}
	}

	// Still lost: dead-reckon on the constant-motion model.
	if e.havePose {
		e.lastPose = predicted
	}
	return Estimate{Pose: predicted, Tracked: false, Relocalized: true}
}

// scorer accumulates the best geometrically-verified candidate while
// keyframes stream past. The first best wins ties, preserving the order
// dependence of the old slice-based scan — what makes streamed (sharded)
// relocalization bit-identical to the monolithic one.
type scorer struct {
	e         *Engine
	kps       []Keypoint
	descs     []Descriptor
	bestScore int
	best      Keyframe
}

// consider scores kf after every one considered so far. Only a keyframe
// that can take the lead needs an exact count, so the matcher may give up on
// one that cannot get there.
func (s *scorer) consider(kf Keyframe) {
	if inl := s.e.match.inliers(s.kps, s.descs, kf.Keypoints, kf.Descriptors, &s.e.cfg, s.bestScore+1); inl > s.bestScore {
		s.bestScore, s.best = inl, kf
	}
}

func (s *scorer) result(minMatches int) (Keyframe, int, bool) {
	if s.bestScore < minMatches {
		return Keyframe{}, s.bestScore, false
	}
	return s.best, s.bestScore, true
}

// track is the tracking attempt. It scores both anchors, the prior map's
// keyframes in the narrow window around predicted (absolute) and the
// previous frame (visual odometry, as ORB-SLAM's tracking thread uses),
// and returns the estimate, or ok = false when neither holds. It changes
// no engine state but its scratch (the matcher's and the visit order).
func (e *Engine) track(kps []Keypoint, descs []Descriptor, predicted scene.Pose) (est Estimate, ok bool) {
	cands := e.store.Candidates(predicted.Z, e.cfg.TrackWindow)
	kf, kfInliers, kfOK := e.bestKeyframe(kps, descs, cands, predicted.Z)
	// Odometry's exact count is read only where it changes the decision:
	// from voBound past a map anchor, from MinMatches without one. Below
	// that the matcher may give up and report 0, which decides the same.
	need := e.cfg.MinMatches
	if kfOK {
		need = voBound(kfInliers)
	}
	voInliers := 0
	if len(e.prevDescs) > 0 {
		voInliers = e.match.inliers(kps, descs, e.prevKps, e.prevDescs, &e.cfg, need)
	}
	// Prefer the map anchor when its support is comparable (it is
	// drift-free), but fall back to odometry when the frame clearly
	// matches the live world better than any surveyed keyframe — the
	// signature of unsurveyed or perceptually-aliased territory.
	if kfOK && mapHolds(kfInliers, voInliers) {
		return Estimate{Pose: e.refinePose(kf, predicted), Tracked: true, Matches: kfInliers}, true
	}
	if voInliers >= e.cfg.MinMatches {
		return Estimate{Pose: predicted, Tracked: true, Matches: voInliers}, true
	}
	return Estimate{}, false
}

// mapHolds reports whether a map anchor with kfInliers keeps the pose
// against odometry with voInliers.
func mapHolds(kfInliers, voInliers int) bool {
	return float64(kfInliers) >= 0.8*float64(voInliers)
}

// voBound is the least odometry count v that overrules a map anchor with
// kfInliers: mapHolds(kfInliers, v') for every v' < v, and for no v' ≥ v.
// Starting from the real quotient, the two loops settle the rounding of
// the float comparison itself.
func voBound(kfInliers int) int {
	v := int(float64(kfInliers) / 0.8)
	for mapHolds(kfInliers, v) {
		v++
	}
	for v > 0 && !mapHolds(kfInliers, v-1) {
		v--
	}
	return v
}

// bestKeyframe scores candidate keyframes by geometrically-verified match
// count and returns the best one (the first in cands on a tie) if it clears
// MinMatches. It visits them nearest to z first, ties by index: the
// nearest is the likeliest winner, and the best score so far bounds every
// later scan. A candidate ahead of the best in cands wins a tie, so it
// needs only bestScore inliers; every other one needs bestScore+1.
func (e *Engine) bestKeyframe(kps []Keypoint, descs []Descriptor, cands []Keyframe, z float64) (Keyframe, int, bool) {
	e.order = e.order[:0]
	for i := range cands {
		e.order = append(e.order, i)
	}
	slices.SortStableFunc(e.order, func(i, j int) int {
		return cmp.Compare(abs(cands[i].Pose.Z-z), abs(cands[j].Pose.Z-z))
	})
	best, bestScore := -1, 0
	for _, i := range e.order {
		need := bestScore + 1
		if i < best {
			need = bestScore
		}
		// need ≥ 1, so a 0 from a scan that gave up never takes the lead.
		inl := e.match.inliers(kps, descs, cands[i].Keypoints, cands[i].Descriptors, &e.cfg, need)
		if inl >= need {
			best, bestScore = i, inl
		}
	}
	if bestScore < e.cfg.MinMatches {
		return Keyframe{}, bestScore, false
	}
	return cands[best], bestScore, true
}

// refinePose blends the matched keyframe's surveyed pose with the motion
// model: the keyframe anchors absolute position (sub-keyframe precision
// comes from the prediction, which advances smoothly between keyframes).
func (e *Engine) refinePose(kf Keyframe, predicted scene.Pose) scene.Pose {
	if !e.havePose {
		return kf.Pose
	}
	pose := predicted
	// Clamp prediction drift to half the keyframe pitch: when the best
	// match is the nearest keyframe, the true position lies within
	// ±spacing/2 of its surveyed position.
	maxDrift := e.cfg.KeyframeSpacing / 2
	if pose.Z > kf.Pose.Z+maxDrift {
		pose.Z = kf.Pose.Z + maxDrift
	}
	if pose.Z < kf.Pose.Z-maxDrift {
		pose.Z = kf.Pose.Z - maxDrift
	}
	pose.X = kf.Pose.X
	pose.Theta = kf.Pose.Theta
	return pose
}

func (e *Engine) commitPose(pose scene.Pose) {
	if e.havePose {
		v := pose.Z - e.lastPose.Z
		// Constant-motion model with mild adaptation, rejecting negative
		// slips. The first observed displacement seeds the model directly
		// so prediction does not lag through a slow exponential ramp.
		if v >= 0 {
			if e.velocity == 0 {
				e.velocity = v
			} else {
				e.velocity = 0.7*e.velocity + 0.3*v
			}
		}
	}
	e.lastPose = pose
	e.havePose = true
}

// detectLoop streams keyframes at least LoopCloseMinGap away from pose and
// returns the best match with at least minScore verified inliers, if any —
// a trajectory loop.
func (e *Engine) detectLoop(kps []Keypoint, descs []Descriptor, pose scene.Pose, minScore int) (Keyframe, bool) {
	bestScore := minScore - 1
	var best Keyframe
	found := false
	e.store.Scan(func(kf Keyframe) bool {
		if abs(kf.Pose.Z-pose.Z) < e.cfg.LoopCloseMinGap {
			return true
		}
		if inl := e.match.inliers(kps, descs, kf.Keypoints, kf.Descriptors, &e.cfg, bestScore+1); inl > bestScore {
			bestScore = inl
			best = kf
			found = true
		}
		return true
	})
	return best, found
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
