package pipeline

import (
	"fmt"
	"sync"
	"time"

	"adsim/internal/telemetry"
)

// This file is the tail-latency controller (DESIGN.md §12): where the
// deadline layer (deadline.go) reacts to a blown budget after the fact, the
// TailScheduler works to keep budgets from blowing at all. It closes the
// loop from delivered-frame latency back onto two knobs through the one
// control law (control.go), one step per back-off or recovery, in a
// committed escalation order:
//
//  1. the admission window — under congestion each extra in-flight frame
//     is queueing delay on every frame behind it, so the first response to
//     a period's worst frame nearing the target is to shrink the window
//     (never below 1: the sequential floor, which cannot deadlock the
//     graph's joins because stage edges stay buffered to the configured
//     ceiling);
//  2. the DET resolution ladder — if pressure stays high at window 1 the
//     work itself doesn't fit, so the scheduler steps detect input
//     resolution down a committed ladder (the paper's Fig 13 knob, closed
//     loop), trading modeled accuracy for compute;
//
// and symmetrically back up on sustained recovery: resolution first (win
// back accuracy), window last (win back throughput).

// TailConfig parameterizes a TailScheduler.
type TailConfig struct {
	// Target is the latency deadline the control law judges each period's
	// worst frame against; 0 selects DefaultFrameBudget.
	Target time.Duration
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
// the window at 1, the sequential schedule, leaving only the ladder). Its
// signal is every delivered frame's latency on the pipeline's clock
// (RunnerResult.Wall), judged by the law fleet admission runs too.
//
// All methods are safe for concurrent use.
type TailScheduler struct {
	initial int
	ladder  []int
	met     tailMetrics

	// window is the admission window the controller adapts: its limit moves
	// in [1, ceiling], and its mutex guards every field below.
	window
	ceiling  int // admission-window ceiling (RunnerOptions.InFlight); 0 until attached
	minLimit int // smallest window the controller reached (observability)
	rung     int // current ladder index; maxRung tracks the deepest visited
	maxRung  int
	period   periodWorst // delivered frames since the last decision
	law      controlLaw
}

// NewTailScheduler validates the configuration and builds a controller.
func NewTailScheduler(cfg TailConfig) (*TailScheduler, error) {
	law, err := newControlLaw("tail", cfg.Target)
	if err != nil {
		return nil, err
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
		initial: cfg.InitialWindow,
		ladder:  append([]int(nil), cfg.Ladder...),
		law:     law,
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
// open period and knob state are that run's trajectory.
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
// latency into the open period, and when it closes, take the law's move.
// The escalation order is fixed: congestion shrinks the window to 1 before
// the ladder gives up any resolution; recovery climbs the ladder back to
// base before the window regrows.
func (t *TailScheduler) observeLocked(wallMs float64) {
	worst, closed := t.period.fold(wallMs)
	if !closed {
		return
	}
	switch _, m := t.law.judge(worst); m {
	case moveBackOff:
		switch {
		case t.limit > 1:
			t.limit--
			t.minLimit = min(t.minLimit, t.limit)
			t.met.shrink.Inc()
		case t.rung+1 < len(t.ladder):
			t.rung++
			t.maxRung = max(t.maxRung, t.rung)
			t.met.scaleDown.Inc()
		}
	case moveRecover:
		switch {
		case t.rung > 0:
			t.rung--
			t.met.scaleUp.Inc()
			t.law.recovered()
		case t.limit < t.ceiling:
			t.limit++
			t.met.grow.Inc()
			t.law.recovered()
		}
	}
	t.publishLocked()
}
