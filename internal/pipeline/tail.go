package pipeline

import (
	"fmt"
	"sync"
	"time"

	"adsim/internal/constraint"
	"adsim/internal/telemetry"
)

// This file is the tail-latency controller (DESIGN.md §12): where the
// deadline layer (deadline.go) reacts to a blown budget after the fact, the
// TailScheduler works to keep budgets from blowing at all. It closes the
// loop from the delivered-frame latency tail back onto two knobs, in a
// committed escalation order:
//
//  1. the admission window — under congestion each extra in-flight frame
//     is queueing delay on every frame behind it, so the first response to
//     a rising P99.99 is to shrink the window (never below 1: the
//     sequential floor, which cannot deadlock the graph's joins because
//     stage edges stay buffered to the configured ceiling);
//  2. the DET resolution ladder — if the tail stays high at window 1 the
//     work itself doesn't fit, so the scheduler steps detect input
//     resolution down a committed ladder (the paper's Fig 13 knob, closed
//     loop), trading modeled accuracy for compute;
//
// and symmetrically back up on sustained recovery: resolution first (win
// back accuracy), window last (win back throughput).

// Tail-controller defaults.
const (
	// DefaultTailWindow is the rolling latency window (frames) the tail
	// signal is computed over. Small enough to react within a burst, large
	// enough that one outlier doesn't whipsaw the knobs.
	DefaultTailWindow = 256
	// DefaultTailPeriod is how many delivered frames pass between
	// controller decisions — the hysteresis that keeps one decision's
	// effect observable before the next.
	DefaultTailPeriod = 16
	// tailHighFrac and tailLowFrac are the congestion watermarks as
	// fractions of the target: above high·target the controller backs off,
	// below low·target for tailRecover consecutive periods it steps back
	// up, and between them it holds.
	tailHighFrac = 0.75
	tailLowFrac  = 0.45
	tailRecover  = 2
)

// TailConfig parameterizes a TailScheduler.
type TailConfig struct {
	// Target is the latency deadline the controller steers the rolling
	// P99.99 toward; 0 selects DefaultFrameBudget.
	Target time.Duration
	// Window is the rolling window (delivered frames) of the tail signal;
	// 0 selects DefaultTailWindow.
	Window int
	// Period is the decision interval in delivered frames; 0 selects
	// DefaultTailPeriod.
	Period int
	// InitialWindow is the admission window at attach, clamped to the
	// executor's ceiling; 0 selects the ceiling itself. Hard-deadline
	// deployments start at 1 — a reactive controller cannot undo the
	// queueing a deep window stacks up during the FIRST stall burst, so
	// they admit conservatively and let sustained calm earn the ceiling.
	InitialWindow int
	// Ladder is the committed descending DET input-size ladder for
	// resolution scaling: Ladder[0] is the base (clean) rung. Entries must
	// be positive multiples of 16 in strictly descending order. nil or
	// single-entry disables resolution scaling.
	Ladder []int
	// Metrics receives the tail/* counters (shrink, grow, scale_down,
	// scale_up) and gauges (window, input_size). nil keeps them on a
	// private registry.
	Metrics *telemetry.Registry
}

// tailMetrics are the pre-resolved telemetry handles the controller writes.
type tailMetrics struct {
	shrink, grow       *telemetry.Counter
	scaleDown, scaleUp *telemetry.Counter
	window, inputSize  *telemetry.Gauge
}

// TailScheduler is the closed-loop tail-latency controller. One scheduler
// serves one executor, and there is one place to hand it over:
// RunnerOptions.Tail (adaptive admission window + ladder; InFlight 1 pins
// the window at 1, the sequential schedule, leaving only the ladder). The
// rolling P99.99 signal is a constraint.Monitor fed every delivered
// frame's latency on the pipeline's clock (RunnerResult.Wall), so the
// controller and the live constraint verdict read the exact same tail.
//
// All methods are safe for concurrent use.
type TailScheduler struct {
	targetMs float64
	period   int
	initial  int
	ladder   []int

	mon *constraint.Monitor
	met tailMetrics

	// window is the admission window the controller adapts: its limit moves
	// in [1, ceiling], and its mutex guards every field below.
	window
	ceiling  int // admission-window ceiling (RunnerOptions.InFlight); 0 until attached
	minLimit int // smallest window the controller reached (observability)
	rung     int // current ladder index; maxRung tracks the deepest visited
	maxRung  int
	since    int // delivered frames since the last decision
	calm     int // consecutive calm periods
}

// NewTailScheduler validates the configuration and builds a controller.
func NewTailScheduler(cfg TailConfig) (*TailScheduler, error) {
	target := cfg.Target
	if target == 0 {
		target = DefaultFrameBudget
	}
	if target < 0 {
		return nil, fmt.Errorf("pipeline: tail target %v must be positive", target)
	}
	window := cfg.Window
	if window == 0 {
		window = DefaultTailWindow
	}
	if window < 1 {
		return nil, fmt.Errorf("pipeline: tail window %d must be positive", window)
	}
	period := cfg.Period
	if period == 0 {
		period = DefaultTailPeriod
	}
	if period < 1 {
		return nil, fmt.Errorf("pipeline: tail period %d must be positive", period)
	}
	if cfg.InitialWindow < 0 {
		return nil, fmt.Errorf("pipeline: tail initial window %d must be non-negative", cfg.InitialWindow)
	}
	for i, size := range cfg.Ladder {
		if size <= 0 || size%16 != 0 {
			return nil, fmt.Errorf("pipeline: ladder rung %d (%d) must be a positive multiple of 16", i, size)
		}
		if i > 0 && size >= cfg.Ladder[i-1] {
			return nil, fmt.Errorf("pipeline: ladder must be strictly descending, rung %d (%d) >= rung %d (%d)",
				i, size, i-1, cfg.Ladder[i-1])
		}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry(0)
	}
	t := &TailScheduler{
		targetMs: float64(target) / 1e6,
		period:   period,
		initial:  cfg.InitialWindow,
		ladder:   append([]int(nil), cfg.Ladder...),
		mon:      constraint.NewMonitor(constraint.MonitorConfig{Window: window}),
		met: tailMetrics{
			shrink:    reg.Counter("tail/shrink"),
			grow:      reg.Counter("tail/grow"),
			scaleDown: reg.Counter("tail/scale_down"),
			scaleUp:   reg.Counter("tail/scale_up"),
			window:    reg.Gauge("tail/window"),
			inputSize: reg.Gauge("tail/input_size"),
		},
	}
	t.cond = sync.NewCond(&t.mu)
	t.delivered = t.observeLocked
	t.publishLocked() // InputSize reads the base rung before attach, too
	return t, nil
}

// Monitor exposes the controller's rolling-tail monitor: the same
// constraint.Monitor semantics (live Performance/Predictability verdicts)
// over exactly the frames the controller has seen.
func (t *TailScheduler) Monitor() *constraint.Monitor { return t.mon }

// WindowLimit reports the current admission window.
func (t *TailScheduler) WindowLimit() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.limit
}

// MinWindowLimit reports the smallest admission window the controller
// reached — how hard it had to back off over the run.
func (t *TailScheduler) MinWindowLimit() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.minLimit
}

// InputSize reports the current resolution-ladder rung (0 when no ladder
// is configured).
func (t *TailScheduler) InputSize() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.size
}

// MaxRungDepth reports the deepest ladder rung the controller visited
// (0 = never left the base resolution).
func (t *TailScheduler) MaxRungDepth() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.maxRung
}

// publishLocked commits the knob state: the current rung's size for the
// next admission, and both gauges.
func (t *TailScheduler) publishLocked() {
	if len(t.ladder) > 0 {
		t.size = t.ladder[t.rung]
	}
	t.met.window.Set(float64(t.limit))
	t.met.inputSize.Set(float64(t.size))
}

// attach binds the scheduler to an executor with the given admission
// ceiling. A scheduler serves exactly one executor for its lifetime — its
// monitor window and knob state are that run's trajectory.
func (t *TailScheduler) attach(ceiling int) error {
	if ceiling < 1 {
		return fmt.Errorf("pipeline: tail ceiling %d must be positive", ceiling)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ceiling != 0 {
		return fmt.Errorf("pipeline: tail scheduler already attached to an executor")
	}
	t.ceiling = ceiling
	t.limit = ceiling
	if t.initial > 0 && t.initial < ceiling {
		t.limit = t.initial
	}
	t.minLimit = t.limit
	t.publishLocked()
	return nil
}

// observeLocked is the window's per-delivery hook: fold the frame's
// latency into the tail signal, and every period frames run the controller.
func (t *TailScheduler) observeLocked(wallMs float64) {
	t.mon.Observe(wallMs, time.Now())
	t.since++
	if t.since >= t.period {
		t.since = 0
		t.decideLocked()
	}
}

// decideLocked is the controller law, run every period under t.mu. The
// escalation order is fixed: congestion shrinks the window to 1 before the
// ladder gives up any resolution; recovery climbs the ladder back to base
// before the window regrows. One step per period, so every move's effect
// is measured before the next.
func (t *TailScheduler) decideLocked() {
	tail := t.mon.Snapshot().TailMs
	switch {
	case tail > tailHighFrac*t.targetMs:
		t.calm = 0
		switch {
		case t.limit > 1:
			t.limit--
			if t.limit < t.minLimit {
				t.minLimit = t.limit
			}
			t.met.shrink.Inc()
		case t.rung+1 < len(t.ladder):
			t.rung++
			if t.rung > t.maxRung {
				t.maxRung = t.rung
			}
			t.met.scaleDown.Inc()
		}
	case tail < tailLowFrac*t.targetMs:
		t.calm++
		if t.calm >= tailRecover {
			t.calm = 0
			switch {
			case t.rung > 0:
				t.rung--
				t.met.scaleUp.Inc()
			case t.limit < t.ceiling:
				t.limit++
				t.met.grow.Inc()
			}
		}
	default:
		// Between the watermarks: hold, and restart the calm streak.
		t.calm = 0
	}
	t.publishLocked()
}
