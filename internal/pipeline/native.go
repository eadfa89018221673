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
	// MOTPLAN + CONTROL (DET and LOC run in parallel).
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
	// DNNDigest pins the frame's DNN numerics: tensor.Fold from
	// tensor.DigestSeed over DET's digest of its last computed layer's
	// output, then TRA's fold of each track's head-output digest (see
	// detect.AnytimeInfo and track.Timing). No DNN value reaches any other
	// field, so this is what end-to-end checks compare; 0 when both
	// stages' digests are 0 (DNNs off).
	DNNDigest uint64
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

	// deadline is the enforcement policy, clock the clock its race runs on,
	// budgets its resolved per-stage budgets (0 = unenforced), and met the
	// pre-resolved metric handles.
	deadline DeadlinePolicy
	clock    deadlineClock
	budgets  [NumStages]time.Duration
	met      deadlineMetrics

	// pending[s] is stage s's abandoned late attempt, if any: closed when
	// the attempt finishes. Only the stage's own execution context (or a
	// quiescent Drain) touches its slot, so no locking.
	pending [NumStages]chan struct{}

	// held is each stage's last good output slot, replayed by the default
	// hold-previous fallback. Each slot is written only from its own stage's
	// execution context.
	held [NumStages]stageOut
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
		clock:    deadlineClock{virtual: cfg.Deadline.Virtual},
		budgets:  cfg.Deadline.resolve(),
		met:      newDeadlineMetrics(reg),
	}
	p.held[StageMisplan].speed = cfg.Plan.TargetSpeed
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
// engines. This is the only place the topology is written down. A stage
// that declares no fallback of its own holds its previous output when its
// budget is blown (the track table, fused frame, guidance, plan, command).
func (p *Pipeline) buildGraph() Graph {
	var g Graph
	g.stages[StageSrc] = StageSpec{
		ID: StageSrc, Engine: p.gen, Run: p.runSrc,
	}
	g.stages[StageDet] = StageSpec{
		ID: StageDet, Engine: p.det, Deps: []StageID{StageSrc}, Run: p.runDet,
		Anytime: true,
		// DET miss ⇒ TRA-only frame: no fresh detections; the tracker
		// moves every live track by template matching on the new frame.
		// The empty slot says exactly that.
		Fallback: func() stageOut { return stageOut{} },
	}
	g.stages[StageLoc] = StageSpec{
		ID: StageLoc, Engine: p.loc, Deps: []StageID{StageSrc}, Run: p.runLoc,
		// LOC miss ⇒ motion-model-only pose, flagged stale. PredictPose
		// only reads engine state, which is quiescent when runStage asks:
		// the previous LOC frame is complete and any late attempt drained.
		Fallback: func() stageOut {
			return stageOut{pose: slam.Estimate{Pose: p.loc.PredictPose(), Stale: true}}
		},
	}
	g.stages[StageTra] = StageSpec{
		ID: StageTra, Engine: p.tra, Deps: []StageID{StageDet}, Run: p.runTra,
	}
	g.stages[StageFusion] = StageSpec{
		ID: StageFusion, Engine: p.fuse, Deps: []StageID{StageTra, StageLoc}, Run: p.runFusion,
	}
	g.stages[StageMisplan] = StageSpec{
		ID: StageMisplan, Engine: p.mis, Deps: []StageID{StageLoc}, Run: p.runMisplan,
	}
	g.stages[StageMotplan] = StageSpec{
		ID: StageMotplan, Engine: p.mot, Deps: []StageID{StageFusion, StageMisplan}, Run: p.runMotplan,
	}
	g.stages[StageControl] = StageSpec{
		ID: StageControl, Engine: p.ctl, Deps: []StageID{StageMotplan}, Run: p.runControl,
	}
	for id := StageDet; id < NumStages; id++ {
		if g.stages[id].Fallback == nil {
			g.stages[id].Fallback = func() stageOut { return p.held[id] }
		}
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

// Step renders the next frame and walks it through the stage graph in
// topological order on the caller's goroutine: the reference executor, with
// no scheduler of its own. Timing.E2E is still the dependency law (DET ∥
// LOC), but Step's own wall time is the sum of the stages; a Runner overlaps
// the same graph within a frame (InFlight 1) and across frames.
func (p *Pipeline) Step() (FrameResult, error) {
	fs := &frameState{admitted: time.Now()}
	for _, id := range p.g.topo {
		p.execStage(p.g.stages[id], fs)
	}
	res := p.deliver(fs)
	return res.FrameResult, res.Err
}

// Drain blocks until every abandoned late stage attempt has finished. Call
// it when the pipeline is quiescent (after Step returns, or after a
// Runner's result channel closes) and before inspecting engines directly —
// under deadline enforcement, on either clock, a budget-blown stage's
// attempt may still be running in the background.
func (p *Pipeline) Drain() {
	for id := StageID(0); id < NumStages; id++ {
		p.drainStage(id)
	}
}

// runSrc renders the next scenario frame (the SRC stage).
func (p *Pipeline) runSrc(_ *frameState, out *stageOut) error {
	out.frame = p.gen.Step()
	return nil
}

// runDet executes the DET stage for one frame, filling the detections and
// the DNN time. Timing comes back from the engine by return value, so
// overlapping frames in the pipelined runner cannot alias each other's
// instrumentation. The frame state carries the tail scheduler's per-frame
// resolution rung and the deadline layer's anytime-exit signals into the
// engine; the engine's early-exit flag goes back out through the slot.
func (p *Pipeline) runDet(fs *frameState, out *stageOut) error {
	dets, tm, info := p.det.DetectBudgeted(fs.out[StageSrc].frame.Image, detect.BudgetOpts{
		InputSize:   fs.detSize,
		Deadline:    fs.detDeadline,
		VirtualFrac: fs.anytimeFrac,
	})
	out.dets, out.anytime, out.kernel, out.dnn = dets, info.EarlyExit, tm.DNN, info.DNNDigest
	if tm.DNN > 0 {
		p.sink.Span(telemetry.Span{Stage: "DET/dnn", Frame: fs.frame(), Exec: tm.DNN})
	}
	return nil
}

// runLoc executes the LOC stage for one frame, filling the pose and the
// feature-extraction time.
func (p *Pipeline) runLoc(fs *frameState, out *stageOut) error {
	est, tm := p.loc.LocalizeTimed(fs.out[StageSrc].frame.Image)
	out.pose, out.kernel = est, tm.FE
	if tm.FE > 0 {
		p.sink.Span(telemetry.Span{Stage: "LOC/fe", Frame: fs.frame(), Exec: tm.FE})
	}
	return nil
}

// runTra executes the TRA stage for one frame (step 1c): the tracker table
// advances and the slot receives a deep-copied snapshot immune to later
// frames. The kernel sub-spans are emitted only on frames where the tracker
// pool's DNN actually ran, mirroring the Fig 7 accounting (per-tracker work
// sums, not wall time).
func (p *Pipeline) runTra(fs *frameState, out *stageOut) error {
	in := fs.out[StageDet].dets
	dets := make([]track.Detection, len(in))
	for i, d := range in {
		dets[i] = track.Detection{Box: d.Box, Class: d.Class}
	}
	tracks, tm := p.tra.Step(fs.out[StageSrc].frame.Image, dets)
	out.tracks, out.kernel, out.other, out.dnn = tracks, tm.DNN, tm.Other, tm.DNNDigest
	if tm.DNN > 0 {
		p.sink.Span(telemetry.Span{Stage: "TRA/dnn", Frame: fs.frame(), Exec: tm.DNN})
		p.sink.Span(telemetry.Span{Stage: "TRA/other", Frame: fs.frame(), Exec: tm.Other})
	}
	return nil
}

// runFusion executes the FUSION stage (step 2): tracked objects and the
// vehicle pose merge into one world frame.
func (p *Pipeline) runFusion(fs *frameState, out *stageOut) error {
	tracks := fs.out[StageTra].tracks
	tracked := make([]fusion.TrackedObject, len(tracks))
	for i, tr := range tracks {
		tracked[i] = fusion.TrackedObject{
			ID: tr.ID, Class: tr.Class, Box: tr.Box, VX: tr.VX, VY: tr.VY,
		}
	}
	out.fused = p.fuse.Fuse(fs.out[StageLoc].pose.Pose, tracked)
	return nil
}

// runMisplan executes the MISPLAN stage (step 4; route re-planned only on
// deviation). The rule engine's outputs shape the motion plan: the leg's
// speed limit caps the target speed, and an upcoming stop line ramps it
// down linearly over the approach zone so the vehicle arrives stopped. The
// shaped speed travels to MOTPLAN through the slot, never by mutating
// shared configuration.
func (p *Pipeline) runMisplan(fs *frameState, out *stageOut) error {
	out.speed = p.cfg.Plan.TargetSpeed
	if p.mis == nil {
		return nil
	}
	pose := fs.out[StageLoc].pose.Pose
	guid, err := p.mis.Update(pose.X, pose.Z)
	if err != nil {
		return fmt.Errorf("pipeline: mission update: %w", err)
	}
	out.guidance = guid
	ts := out.speed
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
	out.speed = ts
	return nil
}

// runMotplan executes the MOTPLAN stage (step 3): plan in the ego lane
// frame against fused objects, under MISPLAN's guidance-shaped target
// speed.
func (p *Pipeline) runMotplan(fs *frameState, out *stageOut) error {
	objects := fs.out[StageFusion].fused.Objects
	obstacles := make([]plan.Obstacle, 0, len(objects))
	for _, o := range objects {
		obstacles = append(obstacles, plan.Obstacle{
			X: o.X, Z: o.Z, Radius: o.Width/2 + 0.5, VX: o.VX, VZ: o.VZ,
		})
	}
	pose := fs.out[StageLoc].pose.Pose
	pr, err := p.mot.Plan(pose.X, pose.Z, obstacles, fs.out[StageMisplan].speed)
	if err != nil {
		return fmt.Errorf("pipeline: motion planning: %w", err)
	}
	out.plan = pr
	return nil
}

// runControl executes the CONTROL stage (step 5): actuation commands that
// follow the plan.
func (p *Pipeline) runControl(fs *frameState, out *stageOut) error {
	pose := fs.out[StageLoc].pose.Pose
	out.command = p.ctl.Track(control.State{
		X: pose.X, Z: pose.Z, Theta: pose.Theta,
		Speed: p.cfg.Scene.EgoSpeed, // the scenario ego's current speed
	}, fs.out[StageMotplan].plan.Path)
	return nil
}
