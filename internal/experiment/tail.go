package experiment

import (
	"fmt"
	"strings"
	"time"

	"adsim/internal/constraint"
	"adsim/internal/faultinject"
	"adsim/internal/pipeline"
	"adsim/internal/scene"
)

// The tail study is the before/after evaluation of the closed-loop
// tail-latency scheduler (pipeline.TailScheduler): the same seeded scenario
// and injected DET stalls are driven through the pipelined executor twice —
// once with a static in-flight window and plain deadline enforcement, once
// under the scheduler (adaptive window + anytime DET + resolution ladder) —
// and both runs are judged by the same constraint.Monitor.
//
// Both runs are on the virtual frame clock (DESIGN.md §8): a frame's latency
// is the injected stalls it waits out, on its own path and queued behind the
// frames ahead of it, so the study is a pure function of seed and sizing.
// Stage service time is not on that clock yet, so the ladder and the anytime
// exit move no virtual time: what the study shows is the window lever, and
// Pass asks for nothing more.
const (
	// tailCeiling is the static in-flight window, and the scheduler's
	// admission ceiling. Deep enough that a stall burst stacks queueing
	// delay on the frames admitted behind it.
	tailCeiling = 6
	// tailSpec stalls DET for 34 ms on three consecutive frames out of every
	// seven. Each stall fits the 35 ms DET budget, so no frame misses; but
	// a frame admitted behind the other two waits out all three, 102 ms,
	// while a window of one holds every frame to its own 34 ms.
	tailSpec = "DET:delay=34ms:every=7:burst=3"
	// tailTarget steers the controller toward deep margin under the 100ms
	// constraint — a setpoint at the constraint itself would leave the
	// controller content with frames that barely scrape in.
	tailTarget = 40 * time.Millisecond
)

// tailLadder is the committed DET resolution ladder for the scheduled run.
func tailLadder() []int { return []int{192, 128, 96, 64} }

// TailRun is one configuration's measured outcome.
type TailRun struct {
	Name       string
	TailMs     float64 // delivered-latency P99.99 over the run
	MeanMs     float64
	HardMisses int // frames delivered past the 100ms constraint
	DetMisses  int // frames that shed detections entirely
	Anytime    int // frames that committed a coarser set on time
	MeanDets   float64
	MinWindow  int // smallest admission window reached
	MaxRung    int // deepest resolution rung visited
}

// TailResult is the rendered before/after study.
type TailResult struct {
	banner
	Baseline  TailRun
	Scheduled TailRun
	Frames    int
}

// Pass is the study's acceptance bar: the static window crosses the
// constraint, and the scheduler both lowers the P99.99 and delivers zero
// hard deadline misses.
func (r TailResult) Pass() bool {
	return r.Baseline.HardMisses > 0 &&
		r.Scheduled.TailMs < r.Baseline.TailMs &&
		r.Scheduled.HardMisses == 0
}

func (r TailResult) Render() string {
	var b strings.Builder
	b.WriteString(string(r.banner))
	fmt.Fprintf(&b, "scenario: urban, %d frames, functional perception, virtual frame clock,\n%s stalls, DET budget 35ms of %v\n\n",
		r.Frames, tailSpec, pipeline.DefaultFrameBudget)
	fmt.Fprintf(&b, "%-10s %10s %8s %10s %9s %8s %11s %8s %5s\n",
		"config", "p99.99-ms", "mean-ms", "hard-miss", "det-miss", "anytime", "dets/frame", "min-win", "rung")
	for _, run := range []TailRun{r.Baseline, r.Scheduled} {
		fmt.Fprintf(&b, "%-10s %10.1f %8.1f %10d %9d %8d %11.2f %8d %5d\n",
			run.Name, run.TailMs, run.MeanMs, run.HardMisses,
			run.DetMisses, run.Anytime, run.MeanDets, run.MinWindow, run.MaxRung)
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
	// experiments, scaled up: the study needs half a dozen controller
	// decisions and a dozen stall bursts.
	frames := max(96, 12*opts.NativeFrames)
	base, err := runTailCase(frames, opts.Seed, false)
	if err != nil {
		return nil, fmt.Errorf("tail baseline: %w", err)
	}
	sched, err := runTailCase(frames, opts.Seed, true)
	if err != nil {
		return nil, fmt.Errorf("tail scheduled: %w", err)
	}
	return &TailResult{Baseline: base, Scheduled: sched, Frames: frames}, nil
}

// runTailCase drives one configuration: identical scenario, faults and
// deadline budgets; only the scheduler (and with it the anytime policy and
// the ladder) differs.
func runTailCase(frames int, seed int64, scheduled bool) (TailRun, error) {
	cfg := pipeline.DefaultConfig(scene.Urban)
	cfg.Scene.Width, cfg.Scene.Height = 384, 192
	cfg.Scene.Seed = seed
	cfg.SurveyFrames = 20
	cfg.Detect.RunDNN = false
	cfg.Track.RunDNN = false
	cfg.Deadline = pipeline.DeadlinePolicy{Enforce: true, Virtual: true, Anytime: scheduled}
	inj, err := faultinject.New(faultinject.MustParse(tailSpec, seed))
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
	// fed every delivered frame: the study's referee, apart from the
	// scheduler's own signal.
	mon := constraint.NewMonitor(constraint.MonitorConfig{Window: frames})
	run := TailRun{Name: "static", MinWindow: tailCeiling}
	if scheduled {
		run.Name = "adaptive"
	}
	dets := 0
	for res := range r.Run(frames) {
		if res.Err != nil {
			return TailRun{}, fmt.Errorf("frame %d: %w", res.Frame.Index, res.Err)
		}
		mon.ObserveDegraded(float64(res.Wall)/1e6, time.Time{}, res.Degraded.Any())
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
	run.TailMs = snap.TailMs
	run.MeanMs = snap.MeanMs
	run.HardMisses = snap.HardMisses
	run.MeanDets = float64(dets) / float64(frames)
	if ts != nil {
		run.MinWindow = ts.MinWindowLimit()
		run.MaxRung = ts.MaxRungDepth()
	}
	return run, nil
}
