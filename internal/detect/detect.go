// Package detect implements the object-detection engine (DET) of the
// pipeline — the paper's YOLO stage.
//
// The engine has two coupled paths:
//
//   - Computational path: a YOLO-shaped convolutional network is executed
//     natively through internal/dnn (a tiny variant in native mode), and the
//     paper-scale YOLOv2 cost profile drives the platform latency models.
//     Per-call instrumentation splits time into DNN vs. pre/post-processing,
//     reproducing the paper's Fig 7 breakdown (DNN ≈ 99.4 % of DET).
//
//   - Functional path: because trained YOLO weights are unavailable (and
//     untrainable here), detection boxes come from a deterministic reference
//     proposal generator that finds the high-contrast object outlines the
//     synthetic scenes render, then runs through YOLO's confidence filter
//     and non-maximum suppression. The network's output grid is not
//     decoded: untrained weights would decode to noise. DESIGN.md
//     documents this substitution.
package detect

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"adsim/internal/dnn"
	"adsim/internal/img"
	"adsim/internal/scene"
	"adsim/internal/tensor"
)

// Detection is one detected object.
type Detection struct {
	Box        img.Rect // frame pixel coordinates
	Class      scene.Class
	Confidence float64
}

// Timing reports where one Detect call spent its time, mirroring the
// paper's DNN-vs-others cycle breakdown.
type Timing struct {
	DNN   time.Duration
	Other time.Duration
}

// Config parameterizes the detector.
type Config struct {
	// InputSize is the square DNN input resolution (must be a multiple of
	// 16 for the tiny network's four pooling stages).
	InputSize int
	// ConfThreshold discards detections below this confidence.
	ConfThreshold float64
	// NMSThreshold is the IoU above which overlapping boxes are suppressed.
	NMSThreshold float64
	// MinBoxPixels discards proposals smaller than this many pixels of
	// area in frame coordinates.
	MinBoxPixels float64
	// RunDNN controls whether the native network is executed. Experiments
	// that only need functional boxes (e.g. planner tests) can disable it.
	RunDNN bool
	// Executor runs the network's forward passes on the calling goroutine
	// and sets their kernel worker count. nil builds a private
	// dnn.NewExecutor(0); a fleet hands every detector the same one.
	Executor *dnn.Executor
	// Nets, when non-nil, is a shared network cache: detectors drawing from
	// one cache hold the SAME network per input size instead of private
	// identical copies, so co-resident streams keep one copy of the weights
	// per size. nil keeps networks private.
	Nets *dnn.NetCache
}

// DefaultConfig returns the standard detector configuration.
func DefaultConfig() Config {
	return Config{
		InputSize:     64,
		ConfThreshold: 0.3,
		NMSThreshold:  0.45,
		MinBoxPixels:  30,
		RunDNN:        true,
	}
}

// Detector is the DET engine. Like every engine it has one owner, since it
// owns its scratch: Detect calls must not overlap. The pipeline runs one
// detector per camera stream from DET's stage only (the paper replicates
// the engine per camera), draining a late attempt before the next call.
type Detector struct {
	cfg     Config
	net     *dnn.Network
	exec    *dnn.Executor
	scratch detScratch

	// nets caches networks for non-default input sizes — the tail
	// scheduler's resolution-ladder rungs. Built lazily; a rung is visited
	// many times once the controller settles, so the cache keeps rung
	// changes allocation-cheap.
	mu   sync.Mutex
	nets map[int]*dnn.Network
}

// detScratch is the detector's buffer set: for the DNN sub-path the resized
// network input image, the normalized input tensor and the layer arena, and
// the proposal pass's working set. Reusing them keeps the steady-state
// Detect call's allocations to its result slices.
type detScratch struct {
	s     dnn.Scratch
	small img.Gray
	input tensor.T
	props proposalScratch
}

// New constructs a detector.
func New(cfg Config) (*Detector, error) {
	if cfg.InputSize <= 0 || cfg.InputSize%16 != 0 {
		return nil, fmt.Errorf("detect: InputSize %d must be a positive multiple of 16", cfg.InputSize)
	}
	if cfg.ConfThreshold < 0 || cfg.ConfThreshold > 1 {
		return nil, fmt.Errorf("detect: ConfThreshold %v out of [0,1]", cfg.ConfThreshold)
	}
	if cfg.NMSThreshold <= 0 || cfg.NMSThreshold > 1 {
		return nil, fmt.Errorf("detect: NMSThreshold %v out of (0,1]", cfg.NMSThreshold)
	}
	d := &Detector{cfg: cfg, exec: cfg.Executor}
	if d.exec == nil {
		d.exec = dnn.NewExecutor(0)
	}
	if cfg.RunDNN {
		d.net = cfg.Nets.Get("tiny-yolo", cfg.InputSize, dnn.TinyYOLO)
	}
	return d, nil
}

// Warm pre-builds the per-size networks for the given input sizes so a
// resolution-ladder transition mid-run never pays first-use network
// construction inside a frame's deadline. Sizes the detector already holds
// (including the configured InputSize) are skipped; invalid sizes are
// ignored — the ladder was validated where it was committed. A no-op when
// the DNN sub-path is disabled.
func (d *Detector) Warm(sizes ...int) {
	if !d.cfg.RunDNN {
		return
	}
	for _, size := range sizes {
		if size <= 0 || size%16 != 0 {
			continue
		}
		d.netFor(size)
	}
}

// PaperWorkload returns the paper-scale DET network as a plain feed-forward
// stack (used by layer-wise analyses like the roofline experiment).
func PaperWorkload() *dnn.Network { return dnn.YOLOv2(416) }

// PaperWorkloadGraph returns the complete paper-scale DET network — YOLOv2
// with batch normalization and the passthrough connection — whose cost
// profile the platform models consume.
func PaperWorkloadGraph() *dnn.Graph { return dnn.YOLOv2Graph(416) }

// Detect runs the DET engine on one frame and returns the surviving
// detections, highest confidence first. Use DetectTimed when the call's
// time breakdown is needed.
func (d *Detector) Detect(frame *img.Gray) []Detection {
	dets, _ := d.DetectTimed(frame)
	return dets
}

// DetectTimed is Detect with the call's DNN-vs-other time breakdown
// returned alongside the result. Returning the timing (instead of the old
// LastTiming accessor) means a pipelined frame N+1 can never overwrite the
// breakdown frame N is about to read.
func (d *Detector) DetectTimed(frame *img.Gray) ([]Detection, Timing) {
	dets, tm, _ := d.DetectBudgeted(frame, BudgetOpts{})
	return dets, tm
}

// BudgetOpts steers one Detect call's latency–accuracy trade, the per-call
// face of the tail scheduler's two knobs (DESIGN.md §12). The zero value
// reproduces DetectTimed exactly.
type BudgetOpts struct {
	// InputSize overrides Config.InputSize for this call — a resolution-
	// ladder rung. 0 (or an invalid size, anything not a positive multiple
	// of 16) keeps the configured size.
	InputSize int
	// Deadline, when nonzero, arms the anytime exit for wall-clock budget
	// enforcement: the DNN forward stops at the first layer boundary past
	// the deadline and the detection set is coarsened (see AnytimeInfo).
	Deadline time.Time
	// VirtualFrac, when in (0,1), arms the deterministic anytime exit the
	// virtual enforcement clock uses: the forward runs ceil(frac*layers)
	// layers, with no timers involved, so the result is a pure function of
	// the inputs. Ignored when Deadline is set.
	VirtualFrac float64
}

// AnytimeInfo reports how a budgeted Detect call executed.
type AnytimeInfo struct {
	// EarlyExit is true when the DNN forward stopped at a layer boundary
	// before the last layer (or, with RunDNN off under VirtualFrac, when
	// the virtual clock modeled such a stop).
	EarlyExit bool
	// LayersRun / LayersTotal locate the exit boundary (zero when RunDNN
	// is off).
	LayersRun, LayersTotal int
	// Quality is the modeled relative detection quality of the committed
	// set: 1 for a full run, AnytimeQualityFloor + (1-floor)·progress for
	// an early exit. The coarsening keeps the top ceil(Quality·n) of the n
	// candidate detections by confidence.
	Quality float64
	// DNNDigest is tensor.Digest of the last executed layer's output, from
	// tensor.DigestSeed: the forward's numerics as one word (0 when RunDNN
	// is off).
	DNNDigest uint64
}

// AnytimeQualityFloor is the modeled relative quality of the earliest
// anytime exit — the first-exit head of an anytime network retains most of
// the prominent detections even when almost no layers ran (the deep layers
// mostly refine small, low-confidence objects). Exits between the first
// and last boundary interpolate linearly up to 1.
const AnytimeQualityFloor = 0.6

// DetectBudgeted runs the DET engine with a per-call input resolution and
// an optional anytime exit. The functional detection path (proposal decode
// on the full frame) is independent of the DNN input size, so a resolution
// change alone never changes the detection set — only the compute profile;
// an anytime exit additionally coarsens the committed set (highest
// confidences kept) as the modeled cost of stopping the network early.
func (d *Detector) DetectBudgeted(frame *img.Gray, opt BudgetOpts) ([]Detection, Timing, AnytimeInfo) {
	info := AnytimeInfo{Quality: 1}
	size := d.cfg.InputSize
	if opt.InputSize > 0 && opt.InputSize%16 == 0 {
		size = opt.InputSize
	}
	startOther := time.Now()
	sc := &d.scratch

	// Pre-processing: resize to network input and normalize into the
	// scratch. Every buffer in it is grow-only, so a rung change reshapes
	// the input and keeps the layer arena: once the largest rung has run,
	// all are warm.
	if d.cfg.RunDNN {
		if cap(sc.input.Data) < size*size {
			sc.input.Data = make([]float32, size*size)
		}
		sc.input = tensor.T{C: 1, H: size, W: size, Data: sc.input.Data[:size*size]}
		frame.ResizeInto(&sc.small, size, size)
		for i, p := range sc.small.Pix {
			sc.input.Data[i] = float32(p) / 255
		}
	}
	preDur := time.Since(startOther)

	// DNN forward pass (computational fidelity; see package comment).
	var dnnDur time.Duration
	progress := 1.0
	if d.cfg.RunDNN {
		net := d.netFor(size)
		info.LayersTotal = len(net.Layers)
		info.LayersRun = info.LayersTotal
		startDNN := time.Now()
		var out *tensor.T
		switch {
		case !opt.Deadline.IsZero():
			out, info.LayersRun = d.exec.ForwardAnytime(net, &sc.input, &sc.s, func(int) bool {
				return time.Now().Before(opt.Deadline)
			})
		case opt.VirtualFrac > 0 && opt.VirtualFrac < 1:
			target := int(math.Ceil(opt.VirtualFrac * float64(info.LayersTotal)))
			out, info.LayersRun = d.exec.ForwardAnytime(net, &sc.input, &sc.s, func(next int) bool {
				return next < target
			})
		default:
			out = d.exec.Forward(net, &sc.input, &sc.s)
		}
		dnnDur = time.Since(startDNN)
		info.DNNDigest = tensor.Digest(tensor.DigestSeed, out.Data)
		if info.LayersRun < info.LayersTotal {
			info.EarlyExit = true
			progress = float64(info.LayersRun) / float64(info.LayersTotal)
		}
	} else if opt.VirtualFrac > 0 && opt.VirtualFrac < 1 {
		// No network to exit from, but the virtual clock still models the
		// anytime cut deterministically from the budget fraction alone.
		info.EarlyExit = true
		progress = opt.VirtualFrac
	}

	// Post-processing: proposal decode + confidence filter + NMS.
	startPost := time.Now()
	props := proposeOutlineBoxes(frame, d.cfg.MinBoxPixels, &sc.props)
	dets := make([]Detection, 0, len(props))
	for _, p := range props {
		if p.Confidence >= d.cfg.ConfThreshold {
			dets = append(dets, p)
		}
	}
	dets = NMS(dets, d.cfg.NMSThreshold)
	if info.EarlyExit {
		info.Quality = AnytimeQualityFloor + float64((1-AnytimeQualityFloor)*progress)
		dets = coarsenAnytime(dets, info.Quality)
	}
	postDur := time.Since(startPost)

	return dets, Timing{DNN: dnnDur, Other: preDur + postDur}, info
}

// netFor returns the network for an input size, lazily building and caching
// ladder rungs other than the configured default.
func (d *Detector) netFor(size int) *dnn.Network {
	if size == d.cfg.InputSize {
		return d.net
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if n, ok := d.nets[size]; ok {
		return n
	}
	if d.nets == nil {
		d.nets = make(map[int]*dnn.Network)
	}
	n := d.cfg.Nets.Get("tiny-yolo", size, dnn.TinyYOLO)
	d.nets[size] = n
	return n
}

// coarsenAnytime keeps the top ceil(quality·n) detections by confidence —
// NMS output is already confidence-descending, so the cut is a prefix. At
// least one detection survives whenever any candidate exists: the anytime
// contract is a coarser result, never an empty one.
func coarsenAnytime(dets []Detection, quality float64) []Detection {
	if len(dets) == 0 {
		return dets
	}
	k := int(math.Ceil(quality * float64(len(dets))))
	if k < 1 {
		k = 1
	}
	if k > len(dets) {
		k = len(dets)
	}
	return dets[:k]
}

// NMS performs greedy non-maximum suppression: detections are processed in
// decreasing confidence order and any detection overlapping an already kept
// one with IoU above thresh is discarded. The input slice is not modified.
func NMS(dets []Detection, thresh float64) []Detection {
	sorted := make([]Detection, len(dets))
	copy(sorted, dets)
	slices.SortStableFunc(sorted, func(a, b Detection) int {
		switch {
		case a.Confidence > b.Confidence:
			return -1
		case a.Confidence < b.Confidence:
			return 1
		}
		return 0
	})
	kept := sorted[:0]
	for _, cand := range sorted {
		suppressed := false
		for _, k := range kept {
			if cand.Box.IoU(k.Box) > thresh {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, cand)
		}
	}
	out := make([]Detection, len(kept))
	copy(out, kept)
	return out
}

// ClassifyBox assigns one of the four paper classes from box geometry: the
// reference classifier used when no trained class head exists. Vehicles are
// wider than tall, traffic signs are square, pedestrians and cyclists are
// tall and narrow (cyclists slightly wider).
func ClassifyBox(b img.Rect) scene.Class {
	h := b.H()
	if h <= 0 {
		return scene.Vehicle
	}
	aspect := b.W() / h
	switch {
	case aspect >= 1.08:
		return scene.Vehicle
	case aspect >= 0.7:
		return scene.TrafficSign
	case aspect >= 0.32:
		return scene.Cyclist
	default:
		return scene.Pedestrian
	}
}
