package pipeline

import (
	"strings"
	"time"
)

// This file is the deadline-enforcement layer: per-stage time budgets
// carved out of the paper's 100 ms frame deadline, enforced in the shared
// execStage path, with a defined degraded mode per stage when a budget is
// blown. The paper's predictability constraint (§3) is a tail bound — the
// 99.99th-percentile frame must finish under the deadline — which means a
// rare stage stall must not be allowed to ride the frame's critical path.
// Enforcement turns a stall into a bounded wait plus a cheaper fallback:
//
//	DET  miss ⇒ TRA-only frame: no fresh detections; the tracker moves
//	            every live track by template matching on the new frame.
//	LOC  miss ⇒ motion-model-only pose, flagged Stale (Estimate.Stale).
//	TRA  miss ⇒ previous frame's track table, coasted by reuse.
//	FUSION / MISPLAN / MOTPLAN / CONTROL miss ⇒ previous output held
//	            (fused frame / guidance / plan / command).
//
// Which stages degraded is surfaced per frame as FrameResult.Degraded (a
// DegradedMask), one bit per stage: a run's miss counts are a fold over the
// delivered masks, and a missed stage's StageTiming entry is its budget.
//
// Enforcement is one race on either clock (runStage in graph.go): take the
// stage's fallback while its engine is quiescent, run the attempt — injected
// delay, then the body — on its own goroutine into a private slot, and wait.
// An attempt that finishes inside the budget is committed with one
// assignment; otherwise the frame takes the fallback and the attempt is
// abandoned to the stage's pending slot. It keeps running in the background,
// so every engine still observes every frame in admission order (the
// determinism invariant survives enforcement), and the stage's next frame
// drains it before touching the engine again. It is race-free by shape: a
// body writes only its own slot and the dependency slots it reads are final.
//
// The clock (deadlineClock) substitutes only the two steps that touch time.
// On the wall clock the delay is slept and the wait is a select between the
// attempt and a budget timer; under DeadlinePolicy.Virtual the delay is
// charged, not slept, and the wait is arithmetic, so the miss sequence is a
// pure function of (scenario, seed) while the abandon, pending and drain
// machinery that runs is the one that ships.
//
// Under Virtual the frame's latency is virtual too: the frame clock. A stage
// charges the injected delay, or its budget on a miss (service time is 0),
// and starts at the latest of its dependencies' virtual done times, its own
// previous frame's and the frame's virtual admission (execStage). A frame is
// admitted at the virtual delivery of the frame whose delivery opened its
// window slot (window.opened; Step admits at the previous frame's), and
// RunnerResult.Wall is its virtual delivery minus that admission. So the
// latencies the tail scheduler and fleet admission read are a pure function
// of (scenario, seed, window) on every executor.

// DefaultFrameBudget is the paper's end-to-end latency constraint: frames
// must complete within 100 ms.
const DefaultFrameBudget = 100 * time.Millisecond

// budgetShare is the default per-mille split of the frame budget across
// stages, shaped by the paper's Figure 5/6 latency profile: the DNN-heavy
// perception stages (DET, LOC, TRA) dominate, planning gets the next
// largest share, and the cheap kernels (FUSION, MISPLAN, CONTROL) split
// the rest. SRC (frame acquisition) is not budgeted — it models the
// camera, not a computation the system can shed.
var budgetShare = [NumStages]int{
	StageSrc:     0,
	StageDet:     350,
	StageLoc:     250,
	StageTra:     100,
	StageFusion:  50,
	StageMisplan: 50,
	StageMotplan: 150,
	StageControl: 50,
}

// DefaultStageBudgets splits a frame budget across the stages using the
// default shares. frame <= 0 selects DefaultFrameBudget.
func DefaultStageBudgets(frame time.Duration) [NumStages]time.Duration {
	if frame <= 0 {
		frame = DefaultFrameBudget
	}
	var out [NumStages]time.Duration
	for id := range out {
		out[id] = frame * time.Duration(budgetShare[id]) / 1000
	}
	return out
}

// DeadlinePolicy configures per-stage budget enforcement with degraded
// modes. The zero value disables enforcement (the pipeline behaves exactly
// as before).
type DeadlinePolicy struct {
	// Enforce turns budget enforcement on.
	Enforce bool
	// FrameBudget is the frame deadline the default stage budgets are
	// carved from; 0 selects DefaultFrameBudget.
	FrameBudget time.Duration
	// Budgets overrides individual stage budgets. Zero entries are filled
	// from DefaultStageBudgets(FrameBudget); a negative entry disables
	// enforcement for that stage. SRC is never budgeted.
	Budgets [NumStages]time.Duration
	// Virtual selects the deterministic clock for the deadline race and the
	// frame's latency: only injected delays (Config.Inject) are charged
	// against budgets, nothing sleeps and no timer runs, and Wall reports
	// the frame clock above, so which stages miss and every latency are
	// bitwise-reproducible across executors and machines. Everything else
	// is the wall-clock path: a virtual miss leaves the stage's attempt
	// running in the background as a pending late attempt, so call Drain
	// before inspecting engines.
	Virtual bool
	// Anytime lets anytime-capable stages (DET) exit early at a layer
	// boundary when their budget is nearly spent, committing a coarser
	// on-time result — flagged as the mask's Anytime bit — instead of
	// missing outright. Under wall-clock enforcement the stage body races
	// a guarded deadline (AnytimeGuardFrac of the budget is reserved for
	// the work outside the network); under Virtual enforcement the exit is
	// decided deterministically from the injected delay alone: a delay in
	// (budget/2, budget] exits anytime with the remaining budget fraction,
	// a delay beyond the budget is still a full miss.
	Anytime bool
}

// AnytimeGuardFrac is the slice of an anytime stage's budget reserved for
// its non-network work (pre-processing, proposal decode, NMS): the anytime
// deadline handed to the stage body is start + (1-guard)·budget, so an
// early-exited attempt still commits inside the real budget. This is the
// anytime-exit error budget of DESIGN.md §12.
const AnytimeGuardFrac = 0.2

// deadlineClock is the clock the deadline race runs on: it decides how an
// injected delay is spent and how the wait for a budgeted attempt ends,
// nothing else.
type deadlineClock struct{ virtual bool }

// spend lets an injected delay pass: slept on the wall clock, returned as
// virtual time to charge on the virtual one.
func (c deadlineClock) spend(delay time.Duration) (charged time.Duration) {
	if c.virtual {
		return delay
	}
	time.Sleep(delay)
	return 0
}

// wait ends the race between a budgeted attempt (attDone closes when it
// finishes, its injected delay included) and the stage's budget. It reports
// whether the budget ran out first — the attempt is then still running —
// and the virtual time the wait took.
func (c deadlineClock) wait(attDone <-chan struct{}, delay, budget time.Duration) (charged time.Duration, missed bool) {
	if c.virtual {
		if delay > budget {
			return budget, true
		}
		<-attDone
		return delay, false
	}
	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case <-attDone:
		return 0, false
	case <-timer.C:
		return 0, true
	}
}

// resolve fills in the effective per-stage budgets.
func (d DeadlinePolicy) resolve() [NumStages]time.Duration {
	def := DefaultStageBudgets(d.FrameBudget)
	var out [NumStages]time.Duration
	if !d.Enforce {
		return out
	}
	for id := range out {
		switch b := d.Budgets[id]; {
		case b > 0:
			out[id] = b
		case b == 0:
			out[id] = def[id]
		default:
			out[id] = 0 // negative: enforcement off for this stage
		}
	}
	out[StageSrc] = 0
	return out
}

// DegradedMask records, per frame, which stages blew their budget and fell
// back to their degraded mode — one bit per StageID — plus the Anytime bit
// (position NumStages) flagging a frame whose DET committed an early-exited
// coarser result on time. Anytime is deliberately distinct from DET's miss
// bit: a miss delivered the fallback (no detections at all), an anytime
// frame delivered a reduced detection set inside the budget.
//
// A stage whose miss bit is set reports its budget as its StageTiming
// entry — the time the frame waited on it before falling back. Timing.E2E
// is the longest path through the stage graph, so no shorter than any path
// through the missed stage: a degraded frame's E2E is never below the
// budget it blew.
type DegradedMask uint16

// anytimeBit is the mask bit position of the Anytime flag, just past the
// per-stage miss bits.
const anytimeBit = uint(NumStages)

// Has reports whether the stage degraded on this frame.
func (m DegradedMask) Has(id StageID) bool { return m&(1<<uint(id)) != 0 }

// Anytime reports whether DET exited early and committed a coarser on-time
// detection set on this frame.
func (m DegradedMask) Anytime() bool { return m&(1<<anytimeBit) != 0 }

// Any reports whether any stage degraded on this frame — a budget miss or
// an anytime early exit; either way the frame's quality was reduced.
func (m DegradedMask) Any() bool { return m != 0 }

// AnyMiss reports whether any stage actually blew its budget and delivered
// its fallback (the anytime bit alone does not count: that frame still
// delivered fresh, if coarser, output on time).
func (m DegradedMask) AnyMiss() bool { return m&^(1<<anytimeBit) != 0 }

// String renders the degraded stages as "DET|LOC", with an anytime early
// exit rendered as "DET~", or "-" for a clean frame.
func (m DegradedMask) String() string {
	if m == 0 {
		return "-"
	}
	var parts []string
	for id := StageID(0); id < NumStages; id++ {
		if m.Has(id) {
			parts = append(parts, id.String())
		}
	}
	if m.Anytime() {
		parts = append(parts, StageDet.String()+"~")
	}
	return strings.Join(parts, "|")
}
