// Package track implements the object-tracking engine (TRA) of the
// pipeline — the paper's GOTURN stage.
//
// Architecture follows the paper's description: a pool of single-object
// trackers is launched up front to avoid initialization overhead, and a
// tracked-object table records the objects currently being tracked; an
// object that fails to appear in ten consecutive frames is dropped and its
// tracker returns to the idle pool.
//
// Like the detection engine, each tracker couples a computational path (a
// GOTURN-shaped two-branch network executed natively at tiny scale, with the
// paper-scale GOTURN cost profile exported for the platform models) with a
// functional path (template matching of the previous target crop inside the
// current search region — the same crop geometry GOTURN uses).
package track

import (
	"fmt"
	"math"
	"slices"
	"time"

	"adsim/internal/dnn"
	"adsim/internal/img"
	"adsim/internal/scene"
	"adsim/internal/tensor"
)

// MissLimit is the number of consecutive frames an object may go undetected
// before it is removed from the tracked-object table (the paper uses ten).
const MissLimit = 10

// Track is one entry in the tracked-object table.
type Track struct {
	ID    int
	Class scene.Class
	Box   img.Rect
	// VX, VY is the box-center velocity in pixels/frame, smoothed by a
	// per-track constant-velocity Kalman filter (raw frame differences
	// are too jittery for the planner's obstacle extrapolation).
	VX, VY float64
	Age    int // frames since the track was created
	Misses int // consecutive frames without a supporting detection

	filter boxFilter
}

// Timing is the DNN-vs-other time breakdown of one engine invocation.
// It also carries DNNDigest: tensor.Fold from tensor.DigestSeed over each
// propagated track's head-output digest (tensor.Digest from DigestSeed, 0
// for a track whose DNN did not run), in track order — the step's DNN
// numerics as one word, 0 when no track propagated or RunDNN is off.
type Timing struct {
	DNN       time.Duration
	Other     time.Duration
	DNNDigest uint64
}

// Config parameterizes the tracking engine.
type Config struct {
	// PoolSize is the number of pre-launched trackers and hence the
	// maximum number of simultaneously tracked objects.
	PoolSize int
	// SearchScale is the factor by which the previous box is inflated to
	// form the search region (GOTURN uses 2).
	SearchScale float64
	// TemplateSize is the square resolution templates are matched at.
	TemplateSize int
	// AssocIoU is the minimum IoU for associating a detection with an
	// existing track.
	AssocIoU float64
	// RunDNN controls whether the native network executes per tracked
	// object.
	RunDNN bool
	// Executor runs the network's forward passes on the calling goroutine,
	// and its width sizes the per-track fan-out. nil builds a private
	// dnn.NewExecutor(0); a fleet hands every engine the same one.
	Executor *dnn.Executor
	// Nets, when non-nil, is a shared network cache: engines drawing from
	// one cache hold the SAME tower/head networks instead of private
	// identical copies, so co-resident streams keep one copy of the
	// weights. nil keeps networks private.
	Nets *dnn.NetCache
}

// DefaultConfig returns the standard tracking configuration.
func DefaultConfig() Config {
	return Config{
		PoolSize:     16,
		SearchScale:  2.0,
		TemplateSize: 16,
		AssocIoU:     0.3,
		RunDNN:       true,
	}
}

// Engine is the TRA engine: tracker pool plus tracked-object table. Step
// must be called from one goroutine at a time (the engine is stateful);
// inside it the executor's workers claim the live tracks one at a time.
type Engine struct {
	cfg    Config
	tower  *dnn.Network
	head   *dnn.Network
	exec   *dnn.Executor
	nextID int

	tracks    []*Track
	prevFrame *img.Gray
	scratch   []*trackScratch // one per executor worker, grown on demand
	spans     []Timing        // the current Step's per-track propagate results
}

// trackScratch is one worker's propagate buffer set: crop/resize images,
// the network input tensor and the layer arena, reused across tracks and
// frames, so the steady-state propagate is allocation-free.
type trackScratch struct {
	s      dnn.Scratch
	target img.Gray // previous-frame target crop
	search img.Gray // current-frame search-region crop
	tSmall img.Gray // target at template resolution
	sSmall img.Gray // search at template resolution
	tmpl   img.Gray // scaled template candidates
	net    img.Gray // network-input resolution staging
	input  *tensor.T
}

// New constructs a tracking engine.
func New(cfg Config) (*Engine, error) {
	if cfg.PoolSize <= 0 {
		return nil, fmt.Errorf("track: PoolSize %d must be positive", cfg.PoolSize)
	}
	if cfg.SearchScale <= 1 {
		return nil, fmt.Errorf("track: SearchScale %v must exceed 1", cfg.SearchScale)
	}
	if cfg.TemplateSize < 4 {
		return nil, fmt.Errorf("track: TemplateSize %d too small", cfg.TemplateSize)
	}
	e := &Engine{cfg: cfg, exec: cfg.Executor}
	if e.exec == nil {
		e.exec = dnn.NewExecutor(0)
	}
	if cfg.RunDNN {
		e.tower = cfg.Nets.Get("tiny-tracker-tower", 32, dnn.TinyTrackerTower)
		e.head = cfg.Nets.Get("tiny-tracker-head", 32, func(int) *dnn.Network {
			return dnn.TinyTrackerHead(e.tower.OutShape())
		})
	}
	return e, nil
}

// PaperWorkload returns the paper-scale TRA cost: one GOTURN inference
// (two CaffeNet tower passes plus the FC regression head) per tracked
// object per frame.
func PaperWorkload() dnn.Cost {
	tower := dnn.GOTURNTower(227)
	head := dnn.GOTURNHead(tower.OutShape())
	return dnn.TrackerCost(tower, head)
}

// Tracks returns a deep-copied snapshot of the tracked-object table. The
// snapshot is immune to subsequent Step calls: callers may hold frame N's
// tracks while frame N+1 advances the engine (the pipelined runner does
// exactly that), without frame N's boxes mutating retroactively.
func (e *Engine) Tracks() []*Track { return e.snapshot() }

// snapshot deep-copies the live table into one slab of tracks behind the
// returned pointers: two allocations whatever the track count.
func (e *Engine) snapshot() []*Track {
	slab := make([]Track, len(e.tracks))
	out := make([]*Track, len(e.tracks))
	for i, tr := range e.tracks {
		slab[i] = *tr
		out[i] = &slab[i]
	}
	return out
}

// ActiveCount reports the number of tracked objects.
func (e *Engine) ActiveCount() int { return len(e.tracks) }

// IdleTrackers reports how many pool slots are free.
func (e *Engine) IdleTrackers() int { return e.cfg.PoolSize - len(e.tracks) }

// Detection is the minimal view of a detector output the engine needs;
// it mirrors detect.Detection without importing the package (keeping the
// dependency arrow pipeline→{detect,track} one-directional).
type Detection struct {
	Box   img.Rect
	Class scene.Class
}

// Step advances the tracked-object table by one frame: every live track is
// propagated by template matching (and the DNN path when enabled), then the
// frame's detections are associated to tracks, spawning new tracks for
// unmatched detections while idle trackers remain and aging out tracks that
// have missed MissLimit consecutive frames.
//
// It returns a deep-copied snapshot of the table after the step together
// with the step's time breakdown, so callers never read engine state that a
// later frame may overwrite. The returned Timing sums per-track durations
// (total tracker-pool work, not wall time, when workers run in parallel).
func (e *Engine) Step(frame *img.Gray, detections []Detection) ([]*Track, Timing) {
	var dnnDur, otherDur time.Duration
	var digest uint64

	// 1. Propagate existing tracks on the new frame (GOTURN step), each on
	// the scratch of the worker that claimed it. A propagate writes only its
	// own Track and span, and the shared tower/head are safe for concurrent
	// Forward calls, so the outcome is independent of the worker count.
	if e.prevFrame != nil && len(e.tracks) > 0 {
		n := len(e.tracks)
		for len(e.scratch) < min(n, e.exec.Workers()) {
			e.scratch = append(e.scratch, &trackScratch{input: tensor.New(1, 32, 32)})
		}
		e.spans = slices.Grow(e.spans[:0], n)[:n]
		e.exec.Each(n, len(e.scratch), func(w, i int) {
			e.spans[i] = e.propagate(e.tracks[i], frame, e.scratch[w])
		})
		digest = tensor.DigestSeed
		for _, s := range e.spans {
			dnnDur += s.DNN
			otherDur += s.Other
			digest = tensor.Fold(digest, s.DNNDigest)
		}
		if !e.cfg.RunDNN {
			digest = 0
		}
	}

	// 2. Associate detections to tracks (greedy best-IoU).
	assocStart := time.Now()
	usedDet := make([]bool, len(detections))
	for _, tr := range e.tracks {
		bestIoU := e.cfg.AssocIoU
		bestIdx := -1
		for i, det := range detections {
			if usedDet[i] {
				continue
			}
			if iou := tr.Box.IoU(det.Box); iou > bestIoU {
				bestIoU = iou
				bestIdx = i
			}
		}
		if bestIdx >= 0 {
			det := detections[bestIdx]
			usedDet[bestIdx] = true
			tr.Box = det.Box
			tr.Class = det.Class
			tr.Misses = 0
		} else {
			tr.Misses++
		}
		tr.Age++
	}

	// Velocity estimation: each live track's final box center for this
	// frame is one measurement for its Kalman filter.
	for _, tr := range e.tracks {
		cx, cy := tr.Box.Center()
		_, _, vx, vy := tr.filter.observe(cx, cy)
		tr.VX, tr.VY = vx, vy
	}

	// 3. Expire stale tracks, freeing their pool slots.
	live := e.tracks[:0]
	for _, tr := range e.tracks {
		if tr.Misses < MissLimit {
			live = append(live, tr)
		}
	}
	e.tracks = live

	// 4. Spawn new tracks for unmatched detections while trackers remain.
	for i, det := range detections {
		if usedDet[i] || len(e.tracks) >= e.cfg.PoolSize {
			continue
		}
		e.nextID++
		tr := &Track{ID: e.nextID, Class: det.Class, Box: det.Box}
		cx, cy := det.Box.Center()
		tr.filter.observe(cx, cy) // initialize the velocity filter
		e.tracks = append(e.tracks, tr)
	}
	otherDur += time.Since(assocStart)

	e.prevFrame = frame
	return e.snapshot(), Timing{DNN: dnnDur, Other: otherDur, DNNDigest: digest}
}

// propagate runs one GOTURN-style tracking step for tr on the new frame
// with sc's buffers, returning its DNN and non-DNN durations and, as
// DNNDigest, the digest of the head's output (0 when the DNN did not run).
func (e *Engine) propagate(tr *Track, frame *img.Gray, sc *trackScratch) (tm Timing) {
	// Degenerate boxes (shrunk by repeated scale-down steps or clipped at
	// the frame edge) cannot be matched; hold them in place and let the
	// miss counter retire the track.
	if tr.Box.W() < 4 || tr.Box.H() < 4 {
		return tm
	}
	startOther := time.Now()
	// Crop previous target and current search region (GOTURN geometry).
	target := e.prevFrame.CropInto(&sc.target, tr.Box)
	search := frame.CropInto(&sc.search, tr.Box.Scale(e.cfg.SearchScale))

	ts := e.cfg.TemplateSize
	ss := int(float64(ts) * e.cfg.SearchScale)
	targetSmall := target.ResizeInto(&sc.tSmall, ts, ts)
	searchSmall := search.ResizeInto(&sc.sSmall, ss, ss)
	tm.Other += time.Since(startOther)

	// Computational path: two-branch network + FC head. The two tower
	// passes share one arena, so branch A's features are copied into a held
	// concat slot before branch B's pass reuses the ping-pong buffers.
	if e.cfg.RunDNN {
		startDNN := time.Now()
		a := e.exec.Forward(e.tower, toTensorInto(sc.input, targetSmall.ResizeInto(&sc.net, 32, 32)), &sc.s)
		n := a.Len()
		concat := sc.s.Hold(0, 2*n, 1, 1)
		copy(concat.Data[:n], a.Data)
		b := e.exec.Forward(e.tower, toTensorInto(sc.input, searchSmall.ResizeInto(&sc.net, 32, 32)), &sc.s)
		copy(concat.Data[n:], b.Data)
		out := e.exec.Forward(e.head, concat, &sc.s)
		tm.DNN = time.Since(startDNN)
		tm.DNNDigest = tensor.Digest(tensor.DigestSeed, out.Data)
	}

	// Functional path: SAD template matching inside the search region,
	// evaluated at three candidate scales — GOTURN regresses position and
	// extent, and objects the vehicle approaches grow frame over frame.
	startMatch := time.Now()
	bestSAD := int64(1) << 62
	bestDx, bestDy := 0, 0
	bestTs := ts
	for _, scale := range [...]float64{1.0, 1.08, 1.0 / 1.08} {
		sts := int(math.Round(float64(ts) * scale))
		if sts < 4 || sts > ss {
			continue
		}
		tmpl := targetSmall
		if sts != ts {
			tmpl = target.ResizeInto(&sc.tmpl, sts, sts)
		}
		nominal := (ss - sts) / 2 // offset corresponding to zero motion
		dx, dy, sad := matchTemplate(searchSmall, tmpl, nominal, nominal)
		// Normalize by template area so scales compete fairly, with a
		// mild preference for keeping the current scale.
		norm := sad / int64(sts*sts)
		if scale != 1.0 {
			norm = norm + norm/16
		}
		if norm < bestSAD {
			bestSAD = norm
			bestDx, bestDy, bestTs = dx, dy, sts
		}
	}
	// Map the template offset back to frame coordinates. The search region
	// spans Box.Scale(SearchScale); template (0-offset) corresponds to the
	// search region's top-left corner.
	region := tr.Box.Scale(e.cfg.SearchScale).Clip(0, 0, frame.W, frame.H)
	if !region.Empty() {
		scaleX := region.W() / float64(ss)
		scaleY := region.H() / float64(ss)
		newX0 := region.X0 + float64(float64(bestDx)*scaleX)
		newY0 := region.Y0 + float64(float64(bestDy)*scaleY)
		newW := tr.Box.W() * float64(bestTs) / float64(ts)
		newH := tr.Box.H() * float64(bestTs) / float64(ts)
		tr.Box = img.RectWH(newX0, newY0, newW, newH)
	}
	tm.Other += time.Since(startMatch)
	return tm
}

// matchTemplate slides tmpl over search (both grayscale) and returns the
// offset minimizing the sum of absolute differences, plus that SAD. Ties
// are broken toward (nx,ny), the offset corresponding to zero motion, so
// featureless regions do not cause the tracker to drift. Offsets are
// scanned row by row, each with one windowSAD call bounded by the best SAD
// so far. A window that stops early has a sum above that best, so neither
// the `<` test nor the tie can take it: the result does not depend on
// whether windowSAD stops early.
func matchTemplate(search, tmpl *img.Gray, nx, ny int) (dx, dy int, best int64) {
	bestSAD := int64(1) << 62
	bestDist := int64(1) << 62
	sw, tw, th := search.W, tmpl.W, tmpl.H
	maxY := search.H - th
	maxX := sw - tw
	if maxY < 0 || maxX < 0 {
		return 0, 0, bestSAD
	}
	// Cut both to exactly W·H pixels: windowSAD trusts the lengths it gets.
	sp := search.Pix[:sw*search.H]
	tp := tmpl.Pix[:tw*th]
	for oy := 0; oy <= maxY; oy++ {
		for ox := 0; ox <= maxX; ox++ {
			sad := windowSAD(sp[oy*sw+ox:], tp, sw, tw, th, bestSAD)
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

// windowSADGo returns the SAD of the w×h template t (rows packed) against
// the window of s whose rows start stride bytes apart, one rowSAD per row.
// It stops once the running sum exceeds bound, so the result is above bound
// exactly when the full SAD is, and equals it otherwise. It is windowSAD on
// every GOARCH but amd64 (sad_other.go) and the reference the assembly
// routine is tested against.
func windowSADGo(s, t []uint8, stride, w, h int, bound int64) int64 {
	var sad int64
	for y := 0; y < h; y++ {
		sad += int64(rowSAD(s[y*stride:], t[y*w:(y+1)*w]))
		if sad > bound {
			break
		}
	}
	return sad
}

// rowSAD returns Σ|s[i] − t[i]| over t's length (≤ 255·len(t), so an int
// holds it on every GOARCH). It stays out of line on purpose: inlined into
// windowSADGo's row loop, where it shares registers with the loop's live
// values, BenchmarkMatchTemplate on the fallback build runs about 10 %
// slower.
//
//go:noinline
func rowSAD(s, t []uint8) int {
	s = s[:len(t)] // one bounds check here, none in the loop
	sum := 0
	for i, v := range t {
		d := int(s[i]) - int(v)
		if d < 0 {
			d = -d // compiles to CMOV: no data-dependent branch
		}
		sum += d
	}
	return sum
}

// toTensorInto normalizes g's pixels into t, which must already have
// g.W×g.H elements.
func toTensorInto(t *tensor.T, g *img.Gray) *tensor.T {
	for i, p := range g.Pix {
		t.Data[i] = float32(p) / 255
	}
	return t
}
