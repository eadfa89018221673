package faultinject

import (
	"fmt"
	"slices"

	"adsim/internal/scenario"
)

// Parse builds a scenario from a compact comma-separated rule list, the
// format the adpipe -fault flag accepts:
//
//	DET:delay=30ms:every=5          delay DET 30ms on every 5th frame
//	LOC:delay=80ms:frames=10-14     stall LOC on frames 10..14
//	LOC:delay=60ms:every=7:burst=3  bursty stall: 3 consecutive frames each period
//	SRC:drop:every=50               drop every 50th frame
//	MOTPLAN:err:frames=9            hard-fail MOTPLAN on frame 9
//	LOC:err:p=0.2                   hard-fail LOC on ~20% of frames
//
// Each rule is STAGE:action[:modifier...], STAGE one of
// scenario.StageNames (case-insensitive). Actions are delay=<duration>,
// err, and drop (an alias for err, conventionally used on SRC). Modifiers
// are every=N, burst=N, p=0.x, and frames=A-B (inclusive; A alone pins one
// frame, "A-" leaves the range open-ended).
//
// Parse is a shim over the unified scenario-program parser: the rule
// grammar is the fault sub-grammar of internal/scenario, so every -fault
// spec is also a valid scenario program. Specs containing world (phase)
// statements are rejected here — run those as scenario programs, which
// carry both a world timeline and fault rules.
func Parse(spec string, seed int64) (Scenario, error) {
	prog, err := scenario.Parse("", spec)
	if err != nil {
		return Scenario{}, err
	}
	if prog.Timeline != nil {
		return Scenario{}, fmt.Errorf("faultinject: spec %q contains world (phase) statements; run it as a scenario program", spec)
	}
	return FromProgram(prog, seed), nil
}

// MustParse is Parse that panics on a malformed spec — for tests and
// compile-time-constant scenarios.
func MustParse(spec string, seed int64) Scenario {
	sc, err := Parse(spec, seed)
	if err != nil {
		panic(err)
	}
	return sc
}

// FromProgram extracts a program's fault rules as a runnable Scenario.
// Programs with no fault rules yield an empty scenario whose injector
// never fires.
func FromProgram(prog *scenario.Program, seed int64) Scenario {
	return Scenario{Seed: seed, Rules: slices.Clone(prog.Faults)}
}
