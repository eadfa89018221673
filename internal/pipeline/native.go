// Package pipeline assembles the end-to-end autonomous driving system of
// the paper's Figure 1 and drives it in two modes:
//
//   - Native mode executes the real Go implementations of every engine on
//     synthetic camera frames: the frame fans out to the object detector
//     (DET) and the localizer (LOC) in parallel, DET's objects feed the
//     tracker (TRA), the tracked objects and the vehicle pose are fused
//     into one world frame (FUSION), and the motion planner (MOTPLAN)
//     produces the operational decision. The mission planner (MISPLAN) is
//     consulted for route guidance and re-planned only on deviation.
//
//   - Simulated mode (sim.go) composes per-frame latency samples from the
//     calibrated platform models in internal/accel at full paper scale,
//     which is how the paper's latency figures are regenerated.
//
// The topology is declared exactly once, as the stage graph in graph.go;
// the sequential Step loop and the pipelined Runner are both constructed
// from it, and every stage execution is reported to the configured
// telemetry.Sink as a span (queue wait vs. execute split), with engine hot
// kernels emitting "STAGE/kernel" sub-spans.
package pipeline

import (
	"fmt"
	"time"

	"adsim/internal/control"
	"adsim/internal/detect"
	"adsim/internal/fusion"
	"adsim/internal/mission"
	"adsim/internal/plan"
	"adsim/internal/scene"
	"adsim/internal/slam"
	"adsim/internal/telemetry"
	"adsim/internal/track"
)

// Config parameterizes the native pipeline.
type Config struct {
	Scene   scene.Config
	Detect  detect.Config
	Track   track.Config
	SLAM    slam.Config
	Plan    plan.ConformalConfig
	Control control.Config
	// SurveyFrames builds the prior map by surveying this many frames of
	// an identical scenario before the run starts (the offline map
	// provider role). 0 keeps the map empty (the localizer dead-reckons
	// and relocalizes).
	SurveyFrames int
	// MapStore, when non-nil, backs the localizer with this prior-map
	// store instead of a fresh in-memory PriorMap — the seam for the
	// tiled shard store (and for fault-injected I/O in chaos tests).
	MapStore slam.MapStore
	// Telemetry receives every stage span and delivered frame from both
	// executors. nil runs with the no-op sink.
	Telemetry telemetry.Sink
	// Deadline configures per-stage budget enforcement with degraded
	// modes (see deadline.go). The zero value disables enforcement.
	Deadline DeadlinePolicy
	// Metrics receives the deadline counters and distributions
	// (deadline/miss, deadline/degraded, deadline/miss/<stage>,
	// deadline/stage_ms/<stage>). nil keeps them on a private registry.
	Metrics *telemetry.Registry
	// Inject, when non-nil, is consulted before every stage body with the
	// canonical stage name and frame index; the returned delay is charged
	// against the stage's budget (slept under wall-clock enforcement,
	// virtual-charged under DeadlinePolicy.Virtual) and a returned error
	// fails the stage. faultinject.Injector.Stage satisfies this
	// signature. For SRC the injector is consulted after the frame is
	// rendered, so the decision keys on the real frame index; an error at
	// SRC models a dropped frame.
	Inject func(stage string, frame int) (time.Duration, error)
}

// DefaultConfig returns a ready-to-run native configuration for a scenario
// kind, sized so native execution is fast enough for tests and examples.
func DefaultConfig(kind scene.Kind) Config {
	sc := scene.DefaultConfig(kind)
	sc.Width, sc.Height = 512, 256
	pc := plan.DefaultConformalConfig()
	pc.TargetSpeed = sc.EgoSpeed
	return Config{
		Scene:        sc,
		Detect:       detect.DefaultConfig(),
		Track:        track.DefaultConfig(),
		SLAM:         slam.DefaultConfig(),
		Plan:         pc,
		Control:      control.DefaultConfig(),
		SurveyFrames: 60,
	}
}

// StageTiming is the per-frame wall-clock timing of every stage, plus the
// DNN/FE instrumentation the cycle-breakdown experiment consumes.
type StageTiming struct {
	Det, Tra, Loc, Fusion, MisPlan, MotPlan, Control time.Duration
	// E2E follows the dependency structure: max(LOC, DET+TRA) + FUSION +
	// MOTPLAN (DET and LOC run in parallel).
	E2E time.Duration
	// Breakdown instrumentation. TraDNN and TraOther sum per-tracker
	// durations across the tracker pool — total pool work, not wall time,
	// when trackers propagate in parallel — so the TRA cycle breakdown is
	// TraDNN/(TraDNN+TraOther), in consistent units.
	DetDNN, TraDNN, TraOther, LocFE time.Duration
}

// FrameResult is the output of one pipeline step.
type FrameResult struct {
	Frame      scene.Frame
	Detections []detect.Detection
	Tracks     []*track.Track
	Pose       slam.Estimate
	Fused      fusion.Frame
	Plan       plan.ConformalResult
	Guidance   mission.Guidance
	Command    control.Command
	Timing     StageTiming
	// Degraded records which stages blew their deadline budget on this
	// frame and delivered their degraded-mode output instead (zero when
	// enforcement is off or the frame was clean).
	Degraded DegradedMask
}

// Pipeline is the native end-to-end system. Step is not safe for concurrent
// use — one frame at a time; hand the pipeline to a Runner to overlap
// multiple in-flight frames.
type Pipeline struct {
	cfg  Config
	gen  *scene.Generator
	sink telemetry.Sink

	det  *detect.Detector
	tra  *track.Engine
	loc  *slam.Engine
	fuse *fusion.Engine
	mot  *plan.Planner
	ctl  *control.Controller
	mis  *mission.Planner // optional

	// g is the validated stage graph both executors are built from.
	g Graph

	// inject is the fault-injection seam (Config.Inject): consulted in
	// execStage before every stage body with the canonical stage name and
	// frame index.
	inject func(stage string, frame int) (time.Duration, error)

	// deadline is the enforcement policy, budgets its resolved per-stage
	// budgets (0 = unenforced), and met the pre-resolved metric handles.
	deadline DeadlinePolicy
	budgets  [NumStages]time.Duration
	met      deadlineMetrics

	// pending[s] is stage s's abandoned late attempt, if any: closed when
	// the attempt finishes. Only the stage's own execution context (or a
	// quiescent Drain) touches its slot, so no locking.
	pending [NumStages]chan struct{}

	// held is each stage's last good output, replayed by the degraded
	// fallbacks. Each field is written only from its own stage's
	// execution context.
	held heldState
}

// heldState is the previous-output hold the degraded fallbacks replay.
type heldState struct {
	tracks      []*track.Track
	fused       fusion.Frame
	guidance    mission.Guidance
	targetSpeed float64
	plan        plan.ConformalResult
	command     control.Command
}

// NewNative constructs the native pipeline, surveying the prior map first
// when configured.
func NewNative(cfg Config) (*Pipeline, error) {
	gen, err := scene.New(cfg.Scene)
	if err != nil {
		return nil, err
	}
	det, err := detect.New(cfg.Detect)
	if err != nil {
		return nil, err
	}
	tra, err := track.New(cfg.Track)
	if err != nil {
		return nil, err
	}
	store := cfg.MapStore
	if store == nil {
		store = slam.NewPriorMap()
	}
	loc, err := slam.NewEngineStore(cfg.SLAM, store)
	if err != nil {
		return nil, err
	}
	fuse, err := fusion.New(gen.Camera(), cfg.Scene.FPS)
	if err != nil {
		return nil, err
	}
	ctl, err := control.New(cfg.Control)
	if err != nil {
		return nil, err
	}
	sink := cfg.Telemetry
	if sink == nil {
		sink = telemetry.Nop{}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry(0)
	}
	p := &Pipeline{
		cfg: cfg, gen: gen, sink: sink,
		det: det, tra: tra, loc: loc, fuse: fuse,
		mot: plan.NewPlanner(cfg.Plan), ctl: ctl,
		inject:   cfg.Inject,
		deadline: cfg.Deadline,
		budgets:  cfg.Deadline.resolve(),
		met:      newDeadlineMetrics(reg),
	}
	p.held.targetSpeed = cfg.Plan.TargetSpeed
	p.g = p.buildGraph()
	if err := p.g.finalize(); err != nil {
		return nil, err
	}

	if cfg.SurveyFrames > 0 {
		survey, err := scene.New(cfg.Scene)
		if err != nil {
			return nil, err
		}
		for i := 0; i < cfg.SurveyFrames; i++ {
			f := survey.Step()
			p.loc.Survey(f.Image, f.EgoPose)
		}
	}
	return p, nil
}

// buildGraph declares the Figure 1 stage graph over this pipeline's
// engines. This is the only place the topology — and each stage's
// input/output field ownership (the Reads/Writes copy discipline the
// deadline layer depends on) — is written down.
func (p *Pipeline) buildGraph() Graph {
	var g Graph
	g.stages[StageSrc] = StageSpec{
		ID: StageSrc, Engine: p.gen, Run: p.runSrc,
	}
	g.stages[StageDet] = StageSpec{
		ID: StageDet, Engine: p.det, Deps: []StageID{StageSrc}, Run: p.runDet,
		Anytime: true,
		Reads: func(dst, src *frameState) {
			dst.res.Frame = src.res.Frame
			dst.detSize = src.detSize
			dst.detDeadline = src.detDeadline
			dst.anytimeFrac = src.anytimeFrac
		},
		Writes: func(dst, src *frameState) {
			dst.res.Detections = src.res.Detections
			dst.res.Timing.Det = src.res.Timing.Det
			dst.res.Timing.DetDNN = src.res.Timing.DetDNN
			dst.anytime = src.anytime
		},
		// DET miss ⇒ TRA-only frame: no fresh detections; the tracker
		// coasts its table on motion alone. The zero-value fields already
		// say exactly that.
		Fallback: func(fs *frameState) {},
	}
	g.stages[StageLoc] = StageSpec{
		ID: StageLoc, Engine: p.loc, Deps: []StageID{StageSrc}, Run: p.runLoc,
		Reads: func(dst, src *frameState) {
			dst.res.Frame = src.res.Frame
		},
		Writes: func(dst, src *frameState) {
			dst.res.Pose = src.res.Pose
			dst.res.Timing.Loc = src.res.Timing.Loc
			dst.res.Timing.LocFE = src.res.Timing.LocFE
		},
		// LOC miss ⇒ motion-model-only pose, flagged stale. PredictPose
		// only reads engine state, which is quiescent here: the previous
		// LOC frame is complete and any late attempt was drained.
		Fallback: func(fs *frameState) {
			fs.res.Pose = slam.Estimate{Pose: p.loc.PredictPose(), Stale: true}
		},
	}
	g.stages[StageTra] = StageSpec{
		ID: StageTra, Engine: p.tra, Deps: []StageID{StageDet}, Run: p.runTra,
		Reads: func(dst, src *frameState) {
			dst.res.Frame = src.res.Frame
			dst.res.Detections = src.res.Detections
		},
		Writes: func(dst, src *frameState) {
			dst.res.Tracks = src.res.Tracks
			dst.res.Timing.Tra = src.res.Timing.Tra
			dst.res.Timing.TraDNN = src.res.Timing.TraDNN
			dst.res.Timing.TraOther = src.res.Timing.TraOther
		},
		// TRA miss ⇒ previous frame's track table (a deep-copied snapshot,
		// immune to the tracker's later mutation).
		Fallback: func(fs *frameState) {
			fs.res.Tracks = p.held.tracks
		},
		Held: func(fs *frameState) {
			p.held.tracks = fs.res.Tracks
		},
	}
	g.stages[StageFusion] = StageSpec{
		ID: StageFusion, Engine: p.fuse, Deps: []StageID{StageTra, StageLoc}, Run: p.runFusion,
		Reads: func(dst, src *frameState) {
			dst.res.Tracks = src.res.Tracks
			dst.res.Pose = src.res.Pose
		},
		Writes: func(dst, src *frameState) {
			dst.res.Fused = src.res.Fused
			dst.res.Timing.Fusion = src.res.Timing.Fusion
		},
		Fallback: func(fs *frameState) {
			fs.res.Fused = p.held.fused
		},
		Held: func(fs *frameState) {
			p.held.fused = fs.res.Fused
		},
	}
	g.stages[StageMisplan] = StageSpec{
		ID: StageMisplan, Engine: p.mis, Deps: []StageID{StageLoc}, Run: p.runMisplan,
		Reads: func(dst, src *frameState) {
			dst.res.Pose = src.res.Pose
			dst.res.Frame = src.res.Frame
		},
		Writes: func(dst, src *frameState) {
			dst.res.Guidance = src.res.Guidance
			dst.res.Timing.MisPlan = src.res.Timing.MisPlan
			dst.targetSpeed = src.targetSpeed
		},
		Fallback: func(fs *frameState) {
			fs.res.Guidance = p.held.guidance
			fs.targetSpeed = p.held.targetSpeed
		},
		Held: func(fs *frameState) {
			p.held.guidance = fs.res.Guidance
			p.held.targetSpeed = fs.targetSpeed
		},
	}
	g.stages[StageMotplan] = StageSpec{
		ID: StageMotplan, Engine: p.mot, Deps: []StageID{StageFusion, StageMisplan}, Run: p.runMotplan,
		Reads: func(dst, src *frameState) {
			dst.res.Fused = src.res.Fused
			dst.res.Pose = src.res.Pose
			dst.targetSpeed = src.targetSpeed
		},
		Writes: func(dst, src *frameState) {
			dst.res.Plan = src.res.Plan
			dst.res.Timing.MotPlan = src.res.Timing.MotPlan
		},
		// MOTPLAN miss ⇒ previous-plan hold: the vehicle keeps following
		// the last committed trajectory for one frame.
		Fallback: func(fs *frameState) {
			fs.res.Plan = p.held.plan
		},
		Held: func(fs *frameState) {
			p.held.plan = fs.res.Plan
		},
	}
	g.stages[StageControl] = StageSpec{
		ID: StageControl, Engine: p.ctl, Deps: []StageID{StageMotplan}, Run: p.runControl,
		Reads: func(dst, src *frameState) {
			dst.res.Pose = src.res.Pose
			dst.res.Plan = src.res.Plan
			dst.res.Timing = src.res.Timing
		},
		Writes: func(dst, src *frameState) {
			dst.res.Command = src.res.Command
			dst.res.Timing.Control = src.res.Timing.Control
			dst.res.Timing.E2E = src.res.Timing.E2E
		},
		// CONTROL miss ⇒ previous-command hold. The fallback still seals
		// the frame's E2E timing — CONTROL is the terminal stage.
		Fallback: func(fs *frameState) {
			fs.res.Command = p.held.command
			sealE2E(&fs.res.Timing)
		},
		Held: func(fs *frameState) {
			p.held.command = fs.res.Command
		},
	}
	return g
}

// Graph exposes the validated stage graph (for inspection and tests).
func (p *Pipeline) Graph() *Graph { return &p.g }

// AttachMission wires a mission planner into the pipeline; its per-leg
// speed limit then caps the motion planner's target speed.
func (p *Pipeline) AttachMission(m *mission.Planner) { p.mis = m }

// Localizer exposes the LOC engine (for map/statistics inspection).
func (p *Pipeline) Localizer() *slam.Engine { return p.loc }

// Tracker exposes the TRA engine.
func (p *Pipeline) Tracker() *track.Engine { return p.tra }

// Step renders the next frame and runs it through the full stage graph
// with one frame in flight (stages still overlap within the frame wherever
// the graph allows — DET and LOC in parallel, per Fig 1). Runner pipelines
// the same graph across multiple in-flight frames.
func (p *Pipeline) Step() (FrameResult, error) {
	fs := &frameState{admitted: time.Now()}
	p.runFrame(fs)
	p.sealFrame(fs)
	err := fs.err()
	wall := time.Since(fs.admitted)
	p.sink.FrameDone(telemetry.FrameEnd{
		Frame:    fs.res.Frame.Index,
		Wall:     wall,
		Err:      err != nil,
		Degraded: fs.res.Degraded.Any(),
	})
	return fs.res, err
}

// Drain blocks until every abandoned late stage attempt has finished. Call
// it when the pipeline is quiescent (after Step returns, or after a
// Runner's result channel closes) and before inspecting engines directly —
// under wall-clock deadline enforcement a budget-blown stage's attempt may
// still be running in the background.
func (p *Pipeline) Drain() {
	for id := StageID(0); id < NumStages; id++ {
		p.drainStage(id)
	}
}

// runSrc renders the next scenario frame (the SRC stage).
func (p *Pipeline) runSrc(fs *frameState) error {
	fs.res.Frame = p.gen.Step()
	return nil
}

// runDet executes the DET stage for one frame, filling Detections and the
// DET timings. Timing comes back from the engine by return value, so
// overlapping frames in the pipelined runner cannot alias each other's
// instrumentation. The frame state carries the tail scheduler's per-frame
// resolution rung and the deadline layer's anytime-exit signals into the
// engine, and the engine's early-exit flag back out.
func (p *Pipeline) runDet(fs *frameState) error {
	start := time.Now()
	dets, tm, info := p.det.DetectBudgeted(fs.res.Frame.Image, detect.BudgetOpts{
		InputSize:   fs.detSize,
		Deadline:    fs.detDeadline,
		VirtualFrac: fs.anytimeFrac,
	})
	fs.anytime = info.EarlyExit
	fs.res.Detections = dets
	fs.res.Timing.Det = time.Since(start)
	fs.res.Timing.DetDNN = tm.DNN
	if tm.DNN > 0 {
		p.sink.Span(telemetry.Span{Stage: "DET/dnn", Frame: fs.res.Frame.Index, Exec: tm.DNN})
	}
	return nil
}

// runLoc executes the LOC stage for one frame, filling Pose and the LOC
// timings.
func (p *Pipeline) runLoc(fs *frameState) error {
	start := time.Now()
	est, tm := p.loc.LocalizeTimed(fs.res.Frame.Image)
	fs.res.Pose = est
	fs.res.Timing.Loc = time.Since(start)
	fs.res.Timing.LocFE = tm.FE
	if tm.FE > 0 {
		p.sink.Span(telemetry.Span{Stage: "LOC/fe", Frame: fs.res.Frame.Index, Exec: tm.FE})
	}
	return nil
}

// runTra executes the TRA stage for one frame (step 1c): the tracker table
// advances and res receives a deep-copied snapshot immune to later frames.
// The kernel sub-spans are emitted only on frames where the tracker pool's
// DNN actually ran, mirroring the Fig 7 accounting (per-tracker work sums,
// not wall time).
func (p *Pipeline) runTra(fs *frameState) error {
	start := time.Now()
	dets := make([]track.Detection, len(fs.res.Detections))
	for i, d := range fs.res.Detections {
		dets[i] = track.Detection{Box: d.Box, Class: d.Class}
	}
	tracks, tm := p.tra.Step(fs.res.Frame.Image, dets)
	fs.res.Tracks = tracks
	fs.res.Timing.Tra = time.Since(start)
	fs.res.Timing.TraDNN = tm.DNN
	fs.res.Timing.TraOther = tm.Other
	if tm.DNN > 0 {
		p.sink.Span(telemetry.Span{Stage: "TRA/dnn", Frame: fs.res.Frame.Index, Exec: tm.DNN})
		p.sink.Span(telemetry.Span{Stage: "TRA/other", Frame: fs.res.Frame.Index, Exec: tm.Other})
	}
	return nil
}

// runFusion executes the FUSION stage (step 2): tracked objects and the
// vehicle pose merge into one world frame.
func (p *Pipeline) runFusion(fs *frameState) error {
	start := time.Now()
	tracked := make([]fusion.TrackedObject, len(fs.res.Tracks))
	for i, tr := range fs.res.Tracks {
		tracked[i] = fusion.TrackedObject{
			ID: tr.ID, Class: tr.Class, Box: tr.Box, VX: tr.VX, VY: tr.VY,
		}
	}
	fs.res.Fused = p.fuse.Fuse(fs.res.Pose.Pose, tracked)
	fs.res.Timing.Fusion = time.Since(start)
	return nil
}

// runMisplan executes the MISPLAN stage (step 4; route re-planned only on
// deviation). The rule engine's outputs shape the motion plan: the leg's
// speed limit caps the target speed, and an upcoming stop line ramps it
// down linearly over the approach zone so the vehicle arrives stopped. The
// shaped speed travels to MOTPLAN through the frame state, never by
// mutating shared configuration.
func (p *Pipeline) runMisplan(fs *frameState) error {
	fs.targetSpeed = p.cfg.Plan.TargetSpeed
	if p.mis == nil {
		return nil
	}
	start := time.Now()
	guid, err := p.mis.UpdateAt(fs.res.Pose.Pose.X, fs.res.Pose.Pose.Z, fs.res.Frame.Time)
	if err != nil {
		return fmt.Errorf("pipeline: mission update: %w", err)
	}
	fs.res.Guidance = guid
	ts := fs.targetSpeed
	if guid.SpeedLimit > 0 && guid.SpeedLimit < ts {
		ts = guid.SpeedLimit
	}
	const stopApproach = 30.0 // meters over which to ramp down
	if guid.StopAhead && guid.DistanceToLegEnd < stopApproach {
		ramp := guid.DistanceToLegEnd / stopApproach
		if ramp < 0.15 {
			ramp = 0.15 // planner needs a positive speed; control stops
		}
		if v := ts * ramp; v < ts {
			ts = v
		}
	}
	fs.targetSpeed = ts
	fs.res.Timing.MisPlan = time.Since(start)
	return nil
}

// runMotplan executes the MOTPLAN stage (step 3): plan in the ego lane
// frame against fused objects, under MISPLAN's guidance-shaped target
// speed.
func (p *Pipeline) runMotplan(fs *frameState) error {
	start := time.Now()
	obstacles := make([]plan.Obstacle, 0, len(fs.res.Fused.Objects))
	for _, o := range fs.res.Fused.Objects {
		obstacles = append(obstacles, plan.Obstacle{
			X: o.X, Z: o.Z, Radius: o.Width/2 + 0.5, VX: o.VX, VZ: o.VZ,
		})
	}
	pr, err := p.mot.Plan(fs.res.Pose.Pose.X, fs.res.Pose.Pose.Z, obstacles, fs.targetSpeed)
	if err != nil {
		return fmt.Errorf("pipeline: motion planning: %w", err)
	}
	fs.res.Plan = pr
	fs.res.Timing.MotPlan = time.Since(start)
	return nil
}

// runControl executes the CONTROL stage (step 5): actuation commands that
// follow the plan. As the graph's terminal stage it also seals the frame's
// E2E timing under the dependency law.
func (p *Pipeline) runControl(fs *frameState) error {
	start := time.Now()
	speed := p.cfg.Scene.EgoSpeed // the scenario ego's current speed
	fs.res.Command = p.ctl.Track(control.State{
		X: fs.res.Pose.Pose.X, Z: fs.res.Pose.Pose.Z,
		Theta: fs.res.Pose.Pose.Theta, Speed: speed,
	}, fs.res.Plan.Path)
	fs.res.Timing.Control = time.Since(start)
	sealE2E(&fs.res.Timing)
	return nil
}

// sealE2E computes the frame's end-to-end latency under the dependency
// law: max(LOC, DET+TRA) + FUSION + MOTPLAN + CONTROL. Factored out so
// CONTROL's degraded fallback seals timing the same way the real body
// does.
func sealE2E(tm *StageTiming) {
	critical := tm.Det + tm.Tra
	if tm.Loc > critical {
		critical = tm.Loc
	}
	tm.E2E = critical + tm.Fusion + tm.MotPlan + tm.Control
}
