package pipeline

import (
	"fmt"
	"time"
)

// This file is the one control law both latency controllers run (DESIGN.md
// §12): the tail scheduler (tail.go) moves its executor's admission window
// and DET resolution with it, fleet admission (admission.go) sheds and
// readmits whole vehicle streams with it. Each stream's delivered latencies
// (ms, on the pipeline's clock) fold into periods of controlPeriod frames,
// and each period is judged by its worst frame: pressure = worst / target.
// Pressure at or over backOffAt backs off one step; at or under recoverAt
// for recoverPeriods periods in a row it recovers one step; in between it
// holds. A judged period is forgotten, so one spike costs one step.
const (
	controlPeriod  = 16
	backOffAt      = 0.7
	recoverAt      = 0.45
	recoverPeriods = 2
)

// periodWorst is one stream's open period: the delivered frames it holds
// and the worst latency among them. Its boundaries are positions in the
// stream, so a period's contents never depend on the schedule.
type periodWorst struct {
	n       int
	worstMs float64
}

// fold adds one delivered frame's latency. When that closes the period it
// returns the period's worst latency and true, and opens the next.
func (p *periodWorst) fold(ms float64) (float64, bool) {
	p.n++
	p.worstMs = max(p.worstMs, ms)
	if p.n < controlPeriod {
		return 0, false
	}
	worst := p.worstMs
	*p = periodWorst{}
	return worst, true
}

// move is what the law asks of its controller for one period.
type move int

const (
	moveHold move = iota
	moveBackOff
	moveRecover
)

// controlLaw judges closed periods against one target and keeps the calm
// streak between them.
type controlLaw struct {
	targetMs float64
	calm     int // consecutive calm periods since the last recovery step
}

// newControlLaw validates a controller's target; 0 selects
// DefaultFrameBudget.
func newControlLaw(who string, target time.Duration) (controlLaw, error) {
	if target == 0 {
		target = DefaultFrameBudget
	}
	if target < 0 {
		return controlLaw{}, fmt.Errorf("pipeline: %s target %v must be positive", who, target)
	}
	return controlLaw{targetMs: float64(target) / 1e6}, nil
}

// judge reads one period's worst latency and returns its pressure and the
// move it calls for. A calm streak that reaches recoverPeriods keeps asking
// to recover until the controller takes a step and says so (recovered).
func (l *controlLaw) judge(worstMs float64) (float64, move) {
	pressure := worstMs / l.targetMs
	switch {
	case pressure >= backOffAt:
		l.calm = 0
		return pressure, moveBackOff
	case pressure <= recoverAt:
		l.calm++
		if l.calm >= recoverPeriods {
			return pressure, moveRecover
		}
	default:
		l.calm = 0
	}
	return pressure, moveHold
}

// recovered restarts the calm streak after a recovery step.
func (l *controlLaw) recovered() { l.calm = 0 }
