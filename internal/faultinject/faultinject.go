// Package faultinject is the deterministic chaos-testing substrate of the
// pipeline: a seeded injector that disturbs stage executions (delays, hard
// errors, dropped frames) according to a declarative scenario, so a chaos
// run is exactly reproducible — the same scenario and seed produce the
// same fault sequence no matter which executor (sequential Step or
// pipelined Runner) consumes it, or how its goroutines interleave.
//
// Reproducibility is the design constraint everything here follows from:
// decisions are pure functions of (scenario, stage, frame). No shared RNG
// stream is consumed per call — a stream's output would depend on the
// order stages happen to ask, which differs between executors.
// Probabilistic rules instead hash (seed, rule, frame).
//
// The injector plugs into pipeline.Config.Inject without the pipeline
// importing this package: the seam is a plain function type.
package faultinject

import (
	"errors"
	"fmt"
	"time"

	"adsim/internal/scenario"
)

// ErrInjected is the sentinel wrapped by every injected hard fault, so
// tests and operators can tell a synthetic failure from a real one with
// errors.Is.
var ErrInjected = errors.New("injected fault")

// Rule is one fault source in a scenario. It is the scenario program's
// fault rule, so a parsed program's rules run unconverted.
type Rule = scenario.FaultRule

// Scenario is a reproducible chaos specification: a seed and a rule list.
type Scenario struct {
	Seed  int64
	Rules []Rule
}

// Injector evaluates a validated scenario. It is stateless and safe for
// concurrent use; two injectors built from the same scenario make
// identical decisions.
type Injector struct {
	sc Scenario
}

// New validates the scenario and returns its injector.
func New(sc Scenario) (*Injector, error) {
	if err := scenario.ValidateFaults(sc.Rules); err != nil {
		return nil, err
	}
	return &Injector{sc: sc}, nil
}

// Scenario returns a copy of the injector's scenario.
func (in *Injector) Scenario() Scenario {
	out := in.sc
	out.Rules = append([]Rule(nil), in.sc.Rules...)
	return out
}

// Stage reports the fault, if any, for one execution of the named stage on
// the given frame: the longest matching delay, or a hard error if any
// matching rule injects one (errors win over delays). The decision is a
// pure function of (scenario, stage, frame) — it cannot depend on the
// order executors evaluate stages in. The signature matches
// pipeline.Config.Inject.
func (in *Injector) Stage(stage string, frame int) (time.Duration, error) {
	var delay time.Duration
	for i, r := range in.sc.Rules {
		if r.Stage != stage || !fires(in.sc.Seed, i, r, frame) {
			continue
		}
		if r.Err {
			return 0, fmt.Errorf("faultinject: %s fault at frame %d: %w", stage, frame, ErrInjected)
		}
		if r.Delay > delay {
			delay = r.Delay
		}
	}
	return delay, nil
}

// fires reports whether rule idx triggers on frame: inside the frame
// range, on the cadence (with its burst width), and past the seeded coin
// flip.
func fires(seed int64, idx int, r Rule, frame int) bool {
	if frame < r.From || (r.To > 0 && frame > r.To) {
		return false
	}
	if r.Every > 0 {
		burst := r.Burst
		if burst <= 0 {
			burst = 1
		}
		if (frame-r.From)%r.Every >= burst {
			return false
		}
	}
	if r.P > 0 && r.P < 1 {
		return bernoulli(seed, idx, frame, r.P)
	}
	return true
}

// bernoulli is a deterministic coin flip keyed by (seed, rule, frame):
// a splitmix64-style finalizer over the key, mapped to [0,1). Being a pure
// hash — not a consumed stream — is what keeps probabilistic rules
// identical across executors.
func bernoulli(seed int64, rule, frame int, p float64) bool {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(rule+1) + 0xbf58476d1ce4e5b9*uint64(frame+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/float64(1<<53) < p
}
