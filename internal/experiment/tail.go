package experiment

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"adsim/internal/constraint"
	"adsim/internal/dnn"
	"adsim/internal/faultinject"
	"adsim/internal/pipeline"
	"adsim/internal/scene"
)

// The tail study is the before/after evaluation of the closed-loop
// tail-latency scheduler (pipeline.TailScheduler): the same seeded scenario
// and injected DET stalls are driven through the pipelined executor twice —
// once with a static in-flight window and plain deadline enforcement, once
// under the scheduler (adaptive window + anytime DET + resolution ladder) —
// and both runs are judged by the same constraint.Monitor. The scheduler
// must cut the delivered-latency P99.99 to zero hard deadline misses while
// holding the accuracy proxy (mean detections per frame) at or above the
// static baseline, which sheds entire detection sets whenever DET misses.
const (
	// tailCeiling is the static in-flight window, and the scheduler's
	// admission ceiling. Deep enough that a stall burst stacks queueing
	// delay on the frames admitted behind it.
	tailCeiling = 6
	// tailBaseSize is DET's base input resolution; the ladder descends from
	// it. Chosen so the full network costs several ms — the slice the
	// anytime exit wins back when a stall has eaten most of the budget.
	tailBaseSize = 192
	// tailSpec stalls DET for 32ms on three consecutive frames out of every
	// seven: inside the 35ms DET budget, but close enough that the full
	// network no longer fits (a plain miss), while an anytime exit commits
	// with room to spare.
	tailSpec = "DET:delay=32ms:every=7:burst=3"
	// tailPeriod is the controller decision interval for the study.
	tailPeriod = 8
	// tailTarget steers the controller's rolling P99.99 toward deep margin
	// under the 100ms constraint — a setpoint at the constraint itself
	// would leave the controller content with frames that barely scrape in.
	tailTarget = 40 * time.Millisecond
	// tailWarmup frames are excluded from BOTH runs' verdicts: the first
	// deliveries pay one-time costs (network and scratch allocation, map
	// tile faults) that belong to startup, not to the steady state the
	// study compares. The controller still sees them — its convergence is
	// part of what is measured.
	tailWarmup = 30
)

// tailLadder is the committed DET resolution ladder for the scheduled run.
func tailLadder() []int { return []int{192, 128, 96, 64} }

// tailParams sizes one study execution. The experiment-test sizing skips
// the DNNs so wall-clock margins stay honest under the race detector's
// slowdown; the full study runs them — the anytime exit's value is exactly
// the network time it sheds.
type tailParams struct {
	Frames int
	DNN    bool
	Seed   int64
}

// TailRun is one configuration's measured outcome.
type TailRun struct {
	Name       string
	TailMs     float64 // delivered-wall P99.99 over the run
	MeanMs     float64
	FPS        float64
	HardMisses int // frames delivered past the 100ms constraint
	DetMisses  int // frames that shed detections entirely
	Anytime    int // frames that committed a coarser set on time
	MeanDets   float64
	MinWindow  int // smallest admission window reached
	MaxRung    int // deepest resolution rung visited
	Report     constraint.LiveReport
}

// TailResult is the rendered before/after study.
type TailResult struct {
	banner
	Baseline  TailRun
	Scheduled TailRun
	Frames    int
	DNN       bool
}

// Pass is the study's acceptance bar: the scheduler must reduce the P99.99,
// deliver zero hard deadline misses, and hold the accuracy proxy at or
// above the static baseline.
func (r TailResult) Pass() bool {
	return r.Scheduled.TailMs < r.Baseline.TailMs &&
		r.Scheduled.HardMisses == 0 &&
		r.Scheduled.MeanDets >= r.Baseline.MeanDets
}

func (r TailResult) Render() string {
	var b strings.Builder
	b.WriteString(string(r.banner))
	fmt.Fprintf(&b, "scenario: urban, %d frames (first %d excluded as warmup), %s,\n%s stalls, DET budget 35ms of %v\n\n",
		r.Frames, tailWarmup, map[bool]string{true: "native DNNs", false: "functional perception"}[r.DNN],
		tailSpec, pipeline.DefaultFrameBudget)
	fmt.Fprintf(&b, "%-10s %10s %8s %6s %10s %9s %8s %11s %8s %5s\n",
		"config", "p99.99-ms", "mean-ms", "fps", "hard-miss", "det-miss", "anytime", "dets/frame", "min-win", "rung")
	for _, run := range []TailRun{r.Baseline, r.Scheduled} {
		fmt.Fprintf(&b, "%-10s %10.1f %8.1f %6.1f %10d %9d %8d %11.2f %8d %5d\n",
			run.Name, run.TailMs, run.MeanMs, run.FPS, run.HardMisses,
			run.DetMisses, run.Anytime, run.MeanDets, run.MinWindow, run.MaxRung)
	}
	for _, run := range []TailRun{r.Baseline, r.Scheduled} {
		fmt.Fprintf(&b, "\n%s monitor verdict:\n", run.Name)
		for _, line := range strings.Split(strings.TrimRight(run.Report.String(), "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	verdict := "FAIL"
	if r.Pass() {
		verdict = "PASS"
	}
	fmt.Fprintf(&b, "\ntail-study %s: p99.99 %.1fms -> %.1fms, hard misses %d -> %d, dets/frame %.2f -> %.2f\n",
		verdict, r.Baseline.TailMs, r.Scheduled.TailMs,
		r.Baseline.HardMisses, r.Scheduled.HardMisses,
		r.Baseline.MeanDets, r.Scheduled.MeanDets)
	return b.String()
}

func runTail(opts Options) (Result, error) {
	// NativeFrames is the sizing knob shared with the other native-execution
	// experiments: the study needs hundreds of delivered frames to exercise
	// the controller, so it scales the knob up; small test sizings also run
	// without the DNNs (see tailParams).
	frames := 25 * opts.NativeFrames
	if frames < 150 {
		frames = 150
	}
	res, err := runTailStudy(tailParams{Frames: frames, DNN: opts.NativeFrames >= 12, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	return &res, nil
}

func runTailStudy(p tailParams) (TailResult, error) {
	base, err := runTailCase(p, false)
	if err != nil {
		return TailResult{}, fmt.Errorf("tail baseline: %w", err)
	}
	// Collect the baseline's allocation debt before the scheduled run starts:
	// otherwise the concurrent collector's mark assists for the PREVIOUS
	// configuration's floating garbage land inside the scheduled run's frame
	// deadlines and bill the baseline's memory traffic to the scheduler.
	runtime.GC()
	sched, err := runTailCase(p, true)
	if err != nil {
		return TailResult{}, fmt.Errorf("tail scheduled: %w", err)
	}
	return TailResult{Baseline: base, Scheduled: sched, Frames: p.Frames, DNN: p.DNN}, nil
}

// runTailCase drives one configuration: identical scenario, faults and
// deadline budgets; only the scheduler (and with it the anytime policy and
// the ladder) differs.
func runTailCase(p tailParams, scheduled bool) (TailRun, error) {
	cfg := pipeline.DefaultConfig(scene.Urban)
	cfg.Scene.Width, cfg.Scene.Height = 384, 192
	cfg.Scene.Seed = p.Seed
	cfg.SurveyFrames = 20
	cfg.Detect.RunDNN = p.DNN
	cfg.Track.RunDNN = p.DNN
	cfg.Detect.InputSize = tailBaseSize
	if p.DNN {
		// A single-worker executor models the paper's constrained compute:
		// sharding the convolutions across host cores would let the stalled
		// frames scrape inside the budget and dissolve the study's pressure.
		cfg.Detect.Executor = dnn.NewExecutor(1)
	}
	cfg.Deadline = pipeline.DeadlinePolicy{Enforce: true, Anytime: scheduled}
	inj, err := faultinject.New(faultinject.MustParse(tailSpec, p.Seed))
	if err != nil {
		return TailRun{}, err
	}
	cfg.Inject = inj.Stage

	pl, err := pipeline.NewNative(cfg)
	if err != nil {
		return TailRun{}, err
	}
	ropts := pipeline.RunnerOptions{InFlight: tailCeiling}
	var ts *pipeline.TailScheduler
	if scheduled {
		ts, err = pipeline.NewTailScheduler(pipeline.TailConfig{
			Target: tailTarget,
			Window: p.Frames,
			Period: tailPeriod,
			// Start admission at 1: the first stall burst arrives before any
			// feedback exists, and queueing stacked behind it cannot be
			// un-admitted. Sustained calm earns the window back.
			InitialWindow: 1,
			Ladder:        tailLadder(),
		})
		if err != nil {
			return TailRun{}, err
		}
		ropts.Tail = ts
	}
	r, err := pipeline.NewRunner(pl, ropts)
	if err != nil {
		return TailRun{}, err
	}

	// Both runs are judged by an identically-configured constraint.Monitor
	// fed every delivered frame; the scheduler's internal monitor is its
	// control signal, this one is the study's referee.
	mon := constraint.NewMonitor(constraint.MonitorConfig{Window: p.Frames})
	run := TailRun{Name: "static", MinWindow: tailCeiling}
	if scheduled {
		run.Name = "adaptive"
	}
	dets, judged := 0, 0
	for res := range r.Run(p.Frames) {
		if res.Err != nil {
			return TailRun{}, fmt.Errorf("frame %d: %w", res.Frame.Index, res.Err)
		}
		if res.Frame.Index < tailWarmup && p.Frames > 2*tailWarmup {
			continue
		}
		judged++
		mon.ObserveDegraded(float64(res.Wall)/1e6, time.Now(), res.Degraded.Any())
		if res.Degraded.Has(pipeline.StageDet) {
			run.DetMisses++
		}
		if res.Degraded.Anytime() {
			run.Anytime++
		}
		dets += len(res.Detections)
	}
	pl.Drain()

	snap := mon.Snapshot()
	run.Report = snap
	run.TailMs = snap.TailMs
	run.MeanMs = snap.MeanMs
	run.FPS = snap.FPS
	run.HardMisses = snap.HardMisses
	run.MeanDets = float64(dets) / float64(judged)
	if ts != nil {
		run.MinWindow = ts.MinWindowLimit()
		run.MaxRung = ts.MaxRungDepth()
	}
	return run, nil
}
