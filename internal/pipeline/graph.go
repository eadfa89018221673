package pipeline

import (
	"fmt"
	"math"
	"time"

	"adsim/internal/control"
	"adsim/internal/detect"
	"adsim/internal/fusion"
	"adsim/internal/mission"
	"adsim/internal/plan"
	"adsim/internal/scene"
	"adsim/internal/slam"
	"adsim/internal/telemetry"
	"adsim/internal/tensor"
	"adsim/internal/track"
)

// This file is the single source of truth for the pipeline's topology: the
// stageDeps table, encoding the paper's Figure 1 dependency law. Both
// executors are built from it — the sequential Step loop walks the stages in
// StageID order one at a time on the caller's goroutine, and the pipelined
// Runner turns each stage into a long-lived goroutine with one channel per
// table edge — and so is the frame's latency, CriticalPath.
//
//	SRC ─┬─► DET ──► TRA ──┐
//	     └─► LOC ──┬───────┴─► FUSION ──┐
//	               └─► MISPLAN ─────────┴─► MOTPLAN ──► CONTROL
//
// Determinism: every stateful engine is pinned to exactly one stage, and
// both executors run each stage over frames in admission order, so results
// are bitwise-identical across executors and in-flight window sizes.
//
// Stage outputs are values: a frame carries one output slot per stage, a
// body writes only its own slot, and a dependency's slot is final once that
// stage completed. The public FrameResult is assembled from the slots in
// exactly one place, deliver.

// StageID identifies one stage of the graph. The declaration order is a
// topological order of stageDeps, which the executors, CriticalPath and
// error reporting rely on.
type StageID int

const (
	StageSrc StageID = iota
	StageDet
	StageLoc
	StageTra
	StageFusion
	StageMisplan
	StageMotplan
	StageControl
	NumStages
)

// stageDeps is the Figure 1 topology: the stages whose output each stage
// consumes. Every dependency has a lower StageID, SRC is the only root and
// CONTROL the only sink (TestStageDepsIsFigure1DAG).
var stageDeps = [NumStages][]StageID{
	StageSrc:     nil,
	StageDet:     {StageSrc},
	StageLoc:     {StageSrc},
	StageTra:     {StageDet},
	StageFusion:  {StageTra, StageLoc},
	StageMisplan: {StageLoc},
	StageMotplan: {StageFusion, StageMisplan},
	StageControl: {StageMotplan},
}

// stageNames are the canonical names: span labels, fault-injection targets
// and metric suffixes.
var stageNames = [NumStages]string{
	"SRC", "DET", "LOC", "TRA", "FUSION", "MISPLAN", "MOTPLAN", "CONTROL",
}

func (id StageID) String() string {
	if id < 0 || id >= NumStages {
		return fmt.Sprintf("stage(%d)", int(id))
	}
	return stageNames[id]
}

// CriticalPath is the dependency law: a frame's latency when stage s takes
// d[s] is its longest path through stageDeps (DET ∥ LOC, and the LOC →
// MISPLAN branch beside FUSION). Finish times are computed in StageID
// order, which is topological.
func CriticalPath[T time.Duration | float64](d [NumStages]T) T {
	var finish [NumStages]T
	for id := range finish {
		var ready T
		for _, dep := range stageDeps[id] {
			ready = max(ready, finish[dep])
		}
		finish[id] = ready + d[id]
	}
	return finish[StageControl]
}

// StageSpec declares one stage's behaviour: the per-frame body and its
// degraded mode. Its place in the topology is stageDeps.
type StageSpec struct {
	// Run is the stage body: a function from its dependencies' output slots
	// (fs.out of every transitive dependency — final once that stage
	// completed, so even a budget-blown late attempt may read them in place)
	// to its own slot. out is the only memory a body writes, which is what
	// keeps a late attempt from racing the concurrent same-frame stages
	// (DET ∥ LOC ∥ MISPLAN under the Runner) or the delivered frame.
	Run func(fs *frameState, out *stageOut) error
	// Fallback returns the stage's degraded-mode output when its budget is
	// blown: a motion-model pose (LOC), nothing (DET, whose degraded mode is
	// the absence of detections), or — the default stageSpecs fills in —
	// the stage's previous output, held. Called from the stage's own
	// execution context with the engine quiescent. Set for every stage but
	// SRC.
	Fallback func() stageOut
	// Anytime marks a stage whose body supports an anytime early exit
	// under DeadlinePolicy.Anytime (DET): when its budget is nearly spent
	// the body stops the network at a layer boundary and commits a coarser
	// on-time result instead of missing. The body reads the exit signal
	// from the frame state (detDeadline on the wall clock, anytimeFrac on
	// the virtual one) and reports the exit in its slot.
	Anytime bool
}

// run executes the stage body into out and stamps the body's duration on
// the slot — the one place a stage is timed.
func (s StageSpec) run(fs *frameState, out *stageOut) error {
	start := time.Now()
	err := s.Run(fs, out)
	out.dur = time.Since(start)
	return err
}

// stageOut is one stage's output slot: the values the stage produces for
// its consumers and for the delivered FrameResult (each stage fills only
// its own few fields), plus its timing.
type stageOut struct {
	frame    scene.Frame          // SRC
	dets     []detect.Detection   // DET
	anytime  bool                 // DET: the body exited early, a coarser set
	pose     slam.Estimate        // LOC
	tracks   []*track.Track       // TRA: a deep-copied snapshot
	fused    fusion.Frame         // FUSION
	guidance mission.Guidance     // MISPLAN
	speed    float64              // MISPLAN: guidance-shaped target speed for MOTPLAN
	plan     plan.ConformalResult // MOTPLAN
	command  control.Command      // CONTROL
	// dnn is the stage's DNN digest (DET: detect.AnytimeInfo.DNNDigest,
	// TRA: track.Timing.DNNDigest; 0 elsewhere, and in an empty fallback),
	// so held and fallback slots replay the numerics they stand for.
	dnn uint64

	// missed marks a slot holding the stage's fallback: the budget was
	// blown. deliver folds missed and anytime into the DegradedMask.
	missed bool
	// dur is the stage's StageTiming entry, stamped by StageSpec.run around
	// the body (or the budget, when the stage blew it); kernel and other
	// are the body's breakdown instrumentation (DetDNN, LocFE,
	// TraDNN/TraOther).
	dur, kernel, other time.Duration
}

// frameState carries one frame through the stage graph. Each stage commits
// exactly one slot of out; cross-stage visibility is ordered by the
// executors (program order in Step, channel send in Runner), and a slot is
// final once its stage completed, so concurrent stages of the same frame
// never touch the same memory.
type frameState struct {
	admitted time.Time
	out      [NumStages]stageOut
	// doneAt stamps each stage's completion; a consumer stage derives its
	// queue wait as (execution start − latest dependency completion).
	doneAt [NumStages]time.Time
	// failed marks stages that errored or were skipped because an upstream
	// stage failed; errs holds each stage's own error.
	failed [NumStages]bool
	errs   [NumStages]error
	// detSize is the DET input resolution the tail scheduler's ladder
	// committed for this frame at admission (0 = the detector's configured
	// size). Stamped before SRC runs and read only by DET, so the
	// executors' frame hand-off is all the ordering it needs. Resolution
	// changes never alter the functional detection set (detect.BudgetOpts),
	// which is why a wall-clock-driven ladder preserves Step/Runner
	// bitwise equivalence.
	detSize int
	// detDeadline and anytimeFrac are DET's anytime-exit signals, set by
	// armAnytime before the attempt starts when the policy arms them:
	// detDeadline is the guarded finish line on the wall clock, anytimeFrac
	// the deterministic remaining-budget fraction on the virtual one.
	detDeadline time.Time
	anytimeFrac float64
	// vadmit is the frame's virtual admission and vdone each stage's virtual
	// done time, on the frame clock of deadline.go (zero on the wall clock).
	vadmit time.Duration
	vdone  [NumStages]time.Duration
}

// frame is the frame's scenario index (valid once SRC has run).
func (fs *frameState) frame() int { return fs.out[StageSrc].frame.Index }

// err returns the frame's first error in stage order, if any.
func (fs *frameState) err() error {
	for id := StageID(0); id < NumStages; id++ {
		if e := fs.errs[id]; e != nil {
			return e
		}
	}
	return nil
}

// execStage runs one stage of the graph for one frame. It is the single
// stage executor both Step and Runner go through: upstream-failure
// skipping, fault injection, deadline enforcement with degraded fallback,
// and queue/exec span emission all live here. The caller must have ordered
// every dependency's completion before this call, and the executor
// guarantees each stage sees frames strictly in admission order.
func (p *Pipeline) execStage(id StageID, fs *frameState) {
	ready := fs.admitted
	failed := false
	for _, dep := range stageDeps[id] {
		if t := fs.doneAt[dep]; t.After(ready) {
			ready = t
		}
		if fs.failed[dep] {
			failed = true
		}
	}
	var charged time.Duration
	if !failed {
		failed, charged = p.runStage(id, fs, ready)
	}
	fs.failed[id] = failed
	fs.doneAt[id] = time.Now()
	if p.clock.virtual {
		// The frame clock (deadline.go): start at the latest of the frame's
		// admission, this stage's previous frame and the dependencies.
		start := max(fs.vadmit, p.vdone[id])
		for _, dep := range stageDeps[id] {
			start = max(start, fs.vdone[dep])
		}
		fs.vdone[id] = start + charged
		p.vdone[id] = fs.vdone[id]
	}
}

// runStage executes one stage body under the fault-injection and deadline
// policies and reports whether the stage failed. Three paths:
//
//   - injected hard error: the stage fails (the frame delivers with Err);
//   - enforcement off (or the stage unbudgeted): run the body, any injected
//     delay riding the frame first;
//   - budgeted: the deadline race of deadline.go — fallback, attempt into a
//     private slot, wait, then commit or abandon to the stage's pending
//     slot. The clock decides only how the wait ends.
//
// A missed stage's slot holds its fallback and the budget as its duration:
// the time the frame actually waited on it. charged is the stage's time on
// the virtual clock (0 on the wall clock).
func (p *Pipeline) runStage(id StageID, fs *frameState, ready time.Time) (failed bool, charged time.Duration) {
	spec := p.stages[id]
	// A previous frame of this stage may have abandoned a late attempt;
	// it must finish before the engine is touched again. Pending slots are
	// only accessed from the stage's own execution context, so no lock.
	p.drainStage(id)

	start := time.Now()
	out := &fs.out[id]
	var err error

	if id == StageSrc {
		// SRC renders first so the injector's decision keys on the real
		// frame index (the generator assigns it inside the body). SRC has
		// no budget: an injected error is a dropped frame, an injected
		// delay models a stalled camera.
		err = spec.run(fs, out)
		if err == nil && p.inject != nil {
			var delay time.Duration
			delay, err = p.inject(id.String(), fs.frame())
			charged = p.clock.spend(delay)
		}
	} else {
		var delay time.Duration
		if p.inject != nil {
			delay, err = p.inject(id.String(), fs.frame())
		}
		budget := p.budgets[id]
		switch {
		case err != nil:
			// Injected hard fault: fail the stage outright.
		case budget <= 0:
			// Unbudgeted (or enforcement off): delays ride the frame.
			charged = p.clock.spend(delay)
			err = spec.run(fs, out)
		default:
			if spec.Anytime && p.deadline.Anytime {
				p.armAnytime(fs, delay, budget)
			}
			// Taken before the attempt starts, while the engine is still
			// quiescent (LOC's fallback reads it).
			fallback := spec.Fallback()
			att := new(stageOut)
			attDone := make(chan struct{})
			var attErr error
			go func() {
				defer close(attDone)
				p.clock.spend(delay) // the wait below accounts for it
				attErr = spec.run(fs, att)
			}()
			var missed bool
			charged, missed = p.clock.wait(attDone, delay, budget)
			if missed {
				*out = fallback
				out.missed, out.dur, out.kernel, out.other = true, budget, 0, 0
				p.pending[id] = attDone
			} else {
				*out, err = *att, attErr
				if err == nil {
					p.held[id] = *out // what an unbudgeted stage never replays needn't be kept
				}
			}
		}
	}

	if err != nil {
		fs.errs[id] = err
	}
	p.sink.Span(telemetry.Span{
		Stage: id.String(),
		Frame: fs.frame(),
		Queue: start.Sub(ready),
		Exec:  time.Since(start) + charged,
	})
	return err != nil, charged
}

// armAnytime hands an anytime stage's body its exit signal before the
// attempt starts (the rules are DeadlinePolicy.Anytime's): a guarded finish
// line on the wall clock, the remaining-budget fraction on the virtual one —
// unless the stall ate the whole budget: a miss, whose late body runs in full.
func (p *Pipeline) armAnytime(fs *frameState, delay, budget time.Duration) {
	if !p.deadline.Virtual {
		fs.detDeadline = time.Now().Add(budget - time.Duration(AnytimeGuardFrac*float64(budget)))
	} else if 2*delay > budget && delay <= budget {
		fs.anytimeFrac = 1 - float64(delay)/float64(budget)
	}
}

// drainStage blocks until the stage's abandoned late attempt, if any, has
// finished. Must be called from the stage's execution context (or with the
// pipeline quiescent, as Drain does).
func (p *Pipeline) drainStage(id StageID) {
	if ch := p.pending[id]; ch != nil {
		<-ch
		p.pending[id] = nil
	}
}

// deliver assembles the frame's public result from the stage slots and
// reports it to the sink. It is the one place FrameResult and StageTiming
// are written, called exactly once per frame by the delivering executor
// (Step or the Runner) after CONTROL completed.
func (p *Pipeline) deliver(fs *frameState) RunnerResult {
	o := &fs.out
	res := FrameResult{
		Frame:      o[StageSrc].frame,
		Detections: o[StageDet].dets,
		Tracks:     o[StageTra].tracks,
		Pose:       o[StageLoc].pose,
		Fused:      o[StageFusion].fused,
		Plan:       o[StageMotplan].plan,
		Guidance:   o[StageMisplan].guidance,
		Command:    o[StageControl].command,
		Timing: StageTiming{
			Det: o[StageDet].dur, Tra: o[StageTra].dur, Loc: o[StageLoc].dur,
			Fusion: o[StageFusion].dur, MisPlan: o[StageMisplan].dur,
			MotPlan: o[StageMotplan].dur, Control: o[StageControl].dur,
			DetDNN: o[StageDet].kernel, LocFE: o[StageLoc].kernel,
			TraDNN: o[StageTra].kernel, TraOther: o[StageTra].other,
		},
	}
	if det, tra := o[StageDet].dnn, o[StageTra].dnn; det|tra != 0 {
		res.DNNDigest = tensor.Fold(tensor.Fold(tensor.DigestSeed, det), tra)
	}
	for id := range o {
		if o[id].missed {
			res.Degraded |= 1 << uint(id)
		}
		if o[id].anytime {
			res.Degraded |= 1 << anytimeBit
		}
	}
	if !fs.failed[StageControl] {
		// A frame that errored short of CONTROL has no E2E. SRC is untimed
		// in StageTiming, so it counts zero here too.
		tm := &res.Timing
		tm.E2E = CriticalPath([NumStages]time.Duration{
			StageDet: tm.Det, StageLoc: tm.Loc, StageTra: tm.Tra, StageFusion: tm.Fusion,
			StageMisplan: tm.MisPlan, StageMotplan: tm.MotPlan, StageControl: tm.Control,
		})
	}
	err := fs.err()
	wall := time.Since(fs.admitted)
	var at time.Time // zero: the sink stamps its own wall clock
	if p.clock.virtual {
		// The frame clock has no service time: a frame is stamped at its
		// capture, so sinks measure the scene's frame rate, not the host's,
		// whatever the latency of the first and last frames.
		wall = fs.vdone[StageControl] - fs.vadmit
		at = time.Unix(0, 0).Add(time.Duration(math.Round(res.Frame.Time * float64(time.Second))))
	}
	p.sink.FrameDone(telemetry.FrameEnd{
		Frame:    res.Frame.Index,
		Wall:     wall,
		At:       at,
		Err:      err != nil,
		Degraded: res.Degraded.Any(),
	})
	return RunnerResult{FrameResult: res, Err: err, Wall: wall}
}
