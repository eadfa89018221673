package experiment

import (
	"fmt"
	"time"

	"adsim/internal/constraint"
	"adsim/internal/faultinject"
	"adsim/internal/pipeline"
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
// its verdict asks for nothing more.
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

// runTail renders one row per configuration. Its verdict is the study's
// acceptance bar: the static window crosses the constraint, and the
// scheduler both lowers the P99.99 and delivers zero hard deadline misses.
func runTail(opts Options) (*Table, error) {
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
	// Cells: 1 p99.99-ms, 2 mean-ms, 3 hard-miss, 6 dets/frame.
	pass := passFail(base[3].(int) > 0 && sched[1].(float64) < base[1].(float64) && sched[3].(int) == 0)
	return &Table{
		Sections: []Section{{
			Title: fmt.Sprintf("scenario: urban, %d frames, functional perception, virtual frame clock,\n%s stalls, DET budget 35ms of %v\n\n",
				frames, tailSpec, pipeline.DefaultFrameBudget),
			Cols: []Col{
				{"config", "%-10s", "%-10s"}, {"p99.99-ms", " %10s", " %10.1f"}, {"mean-ms", " %8s", " %8.1f"},
				{"hard-miss", " %10s", " %10d"}, {"det-miss", " %9s", " %9d"}, {"anytime", " %8s", " %8d"},
				{"dets/frame", " %11s", " %11.2f"}, {"min-win", " %8s", " %8d"}, {"rung", " %5s", " %5d"},
			},
			Rows: [][]any{base, sched},
		}},
		Note: fmt.Sprintf("\ntail-study %s: p99.99 %.1fms -> %.1fms, hard misses %d -> %d, dets/frame %.2f -> %.2f\n",
			pass, base[1], sched[1], base[3], sched[3], base[6], sched[6]),
	}, nil
}

// runTailCase drives one configuration: identical scenario, faults and
// deadline budgets; only the scheduler (and with it the anytime policy and
// the ladder) differs. It returns the configuration's table row.
func runTailCase(frames int, seed int64, scheduled bool) ([]any, error) {
	// Both runs are judged by an identically-configured constraint.Monitor
	// on the pipeline's sink: the study's referee, apart from the
	// scheduler's own signal.
	mon := constraint.NewMonitor(constraint.MonitorConfig{Window: frames})
	cfg, err := studyConfig(faultinject.MustParse(tailSpec, seed), mon)
	if err != nil {
		return nil, err
	}
	cfg.Deadline.Anytime = scheduled
	pl, err := pipeline.NewNative(cfg)
	if err != nil {
		return nil, err
	}
	ropts := pipeline.RunnerOptions{InFlight: tailCeiling}
	name, minWindow, maxRung := "static", tailCeiling, 0
	if scheduled {
		ts, err := pipeline.NewTailScheduler(pipeline.TailConfig{
			Target: tailTarget,
			// Start admission at 1: the first stall burst arrives before any
			// feedback exists, and queueing stacked behind it cannot be
			// un-admitted. Sustained calm earns the window back.
			InitialWindow: 1,
			Ladder:        tailLadder(),
		})
		if err != nil {
			return nil, err
		}
		ropts.Tail = ts
		name = "adaptive"
	}
	r, err := pipeline.NewRunner(pl, ropts)
	if err != nil {
		return nil, err
	}

	detMisses, anytime, dets := 0, 0, 0
	for res := range r.Run(frames) {
		if res.Err != nil {
			return nil, fmt.Errorf("frame %d: %w", res.Frame.Index, res.Err)
		}
		if res.Degraded.Has(pipeline.StageDet) {
			detMisses++
		}
		if res.Degraded.Anytime() {
			anytime++
		}
		dets += len(res.Detections)
	}
	pl.Drain()
	if ts := ropts.Tail; ts != nil {
		minWindow, maxRung = ts.MinWindowLimit(), ts.MaxRungDepth()
	}
	snap := mon.Snapshot()
	return []any{name, snap.TailMs, snap.MeanMs, snap.HardMisses, detMisses, anytime,
		float64(dets) / float64(frames), minWindow, maxRung}, nil
}
