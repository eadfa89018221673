package pipeline

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"adsim/internal/detect"
	"adsim/internal/scene"
	"adsim/internal/testutil"
)

// This file tests the closed-loop tail-latency controller (tail.go): the
// controller law itself on synthetic latencies, the degenerate pinned-at-1
// window (which must be bitwise-identical to Step), forced mid-flight
// shrinks (which must never reorder delivery), and the anytime/pending
// drain interactions of the deadline race, on the virtual clock.

func TestTailSchedulerValidation(t *testing.T) {
	bad := []TailConfig{
		{Target: -time.Millisecond},
		{InitialWindow: -1},
		{Ladder: []int{100}},       // not a multiple of 16
		{Ladder: []int{64, 64}},    // not strictly descending
		{Ladder: []int{48, 64}},    // ascending
		{Ladder: []int{64, 48, 0}}, // non-positive rung
	}
	for i, cfg := range bad {
		if _, err := NewTailScheduler(cfg); err == nil {
			t.Errorf("config %d (%+v) accepted", i, cfg)
		}
	}

	// A scheduler serves exactly one executor.
	ts, err := NewTailScheduler(TailConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.attach(2); err != nil {
		t.Fatal(err)
	}
	if err := ts.attach(2); err == nil {
		t.Error("double attach accepted")
	}
	p, err := NewNative(fastNativeConfig(scene.Highway))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(p, RunnerOptions{InFlight: 2, Tail: ts}); err == nil {
		t.Error("runner accepted an already-attached scheduler")
	}
	if err := ts.attach(0); err == nil {
		t.Error("non-positive ceiling accepted")
	}
}

// tailStep is one knob move of a TailScheduler: the delivered frame whose
// period closed with it, and the window and DET size it left.
type tailStep struct{ frame, window, size int }

// feedTail delivers one frame per latency (ms) through the scheduler's
// window and returns every knob move, checking the escalation order after
// each frame: the ladder only ever leaves base resolution while the window
// sits at its floor.
func feedTail(t *testing.T, ts *TailScheduler, lat []float64) []tailStep {
	t.Helper()
	base := ts.InputSize()
	var steps []tailStep
	window, size := ts.WindowLimit(), base
	for i, ms := range lat {
		if _, _, ok := ts.admitAt(); !ok {
			t.Fatal("admit interrupted")
		}
		ts.deliveredAt(ms, 0)
		w, sz := ts.WindowLimit(), ts.InputSize()
		if sz < base && w != 1 {
			t.Fatalf("frame %d: rung below base at window %d: escalation order violated", i, w)
		}
		if w != window || sz != size {
			steps = append(steps, tailStep{i + 1, w, sz})
			window, size = w, sz
		}
	}
	return steps
}

// periods is n control periods of frames at ms each.
func periods(n int, ms float64) []float64 {
	lat := make([]float64, n*controlPeriod)
	for i := range lat {
		lat[i] = ms
	}
	return lat
}

// TestTailControllerLaw drives the controller with synthetic delivered
// latencies and checks the exact decision sequence of the one law: every
// period whose worst frame reaches 0.7 of the target backs off one step,
// the window all the way to 1 BEFORE the ladder gives up resolution; two
// calm periods (worst at most 0.45 of the target) recover one step, the
// ladder back to base BEFORE the window regrows; a period between the
// watermarks holds and restarts the calm streak; and at the ceiling the
// streak runs on, so after the next back-off two calm periods still
// recover.
func TestTailControllerLaw(t *testing.T) {
	ts, err := NewTailScheduler(TailConfig{
		Target: 100 * time.Millisecond, // watermarks: back off at 70 ms, calm at 45 ms
		Ladder: []int{64, 48, 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.attach(3); err != nil {
		t.Fatal(err)
	}
	if got := ts.InputSize(); got != 64 {
		t.Fatalf("base InputSize = %d, want 64", got)
	}
	const p = controlPeriod
	spike := periods(1, 1)
	spike[0] = 70 // a period is its worst frame: one frame at the watermark backs off
	lat := slices.Concat(
		periods(5, 70), // at the back-off watermark: window 3 -> 1, ladder 64 -> 32, then both floors hold
		periods(1, 45), // at the calm watermark: calm 1
		periods(1, 60), // between the watermarks: hold, the streak restarts
		periods(8, 10), // calm: ladder back to base, then window back to 3, one step per 2 periods
		periods(3, 10), // at the ceiling: nothing to step, the streak runs on
		spike,          // one back-off: window 2
		periods(2, 1),  // two calm periods: window 3
	)
	want := []tailStep{
		{1 * p, 2, 64},
		{2 * p, 1, 64},
		{3 * p, 1, 48},
		{4 * p, 1, 32},
		{9 * p, 1, 48},
		{11 * p, 1, 64},
		{13 * p, 2, 64},
		{15 * p, 3, 64},
		{19 * p, 2, 64},
		{21 * p, 3, 64},
	}
	if got := feedTail(t, ts, lat); !reflect.DeepEqual(got, want) {
		t.Fatalf("decisions = %v, want %v", got, want)
	}
	if ts.MinWindowLimit() != 1 || ts.MaxRungDepth() != 2 {
		t.Fatalf("trajectory: minLimit %d (want 1), maxRung %d (want 2)",
			ts.MinWindowLimit(), ts.MaxRungDepth())
	}
}

// TestTailForgetsOneSpike is the one-spike guard: one 90 ms frame among
// 1 ms frames (target 100 ms) backs the window off one step, in the period
// that holds the spike, and two calm periods later it is back at its
// ceiling. (A rolling P99.99 over 256 frames would hold such a spike for
// hundreds of frames, stepping the window to 1 and the ladder down behind
// it.)
func TestTailForgetsOneSpike(t *testing.T) {
	const frames, spike = 6000, 100 // 375 periods
	ts, err := NewTailScheduler(TailConfig{
		Target: 100 * time.Millisecond,
		Ladder: []int{64, 48, 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.attach(6); err != nil {
		t.Fatal(err)
	}
	lat := periods(frames/controlPeriod, 1)
	lat[spike] = 90
	closes := (spike/controlPeriod + 1) * controlPeriod
	want := []tailStep{
		{closes, 5, 64},
		{closes + recoverPeriods*controlPeriod, 6, 64},
	}
	if got := feedTail(t, ts, lat); !reflect.DeepEqual(got, want) {
		t.Errorf("decisions = %v, want %v", got, want)
	}
	if ts.MinWindowLimit() != 5 || ts.MaxRungDepth() != 0 {
		t.Errorf("trajectory: minLimit %d (want 5), maxRung %d (want 0)", ts.MinWindowLimit(), ts.MaxRungDepth())
	}
}

// TestTailAdmitBlocksAndInterrupts pins the admission contract: admission
// blocks once in-flight reaches the live limit, a delivery frees a slot,
// and interrupt permanently unblocks waiters with ok=false.
func TestTailAdmitBlocksAndInterrupts(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	ts, err := NewTailScheduler(TailConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.attach(1); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ts.admitAt(); !ok {
		t.Fatal("first admit refused")
	}
	admitted := make(chan bool, 2)
	go func() {
		_, _, ok := ts.admitAt()
		admitted <- ok
	}()
	select {
	case <-admitted:
		t.Fatal("second admit did not block at limit 1")
	case <-time.After(20 * time.Millisecond):
	}
	ts.deliveredAt(1, 0)
	select {
	case ok := <-admitted:
		if !ok {
			t.Fatal("unblocked admit reported not-ok")
		}
	case <-time.After(time.Second):
		t.Fatal("a delivery did not unblock admission")
	}
	go func() {
		_, _, ok := ts.admitAt()
		admitted <- ok
	}()
	ts.interrupt()
	select {
	case ok := <-admitted:
		if ok {
			t.Fatal("interrupted admit reported ok")
		}
	case <-time.After(time.Second):
		t.Fatal("interrupt did not unblock admission")
	}
}

// TestTailPinnedWindowMatchesStep is the degenerate-window guard: a Runner
// whose tail scheduler is pinned at ceiling 1 must deliver results
// bitwise-identical (modulo timing) to a plain sequential Step loop — the
// adaptive window has nowhere to go and the resolution ladder, when it does
// move, must not change results (the detection path is a pure function of
// the frame, not of the DNN input size).
func TestTailPinnedWindowMatchesStep(t *testing.T) {
	const frames = 8
	cfg := fastNativeConfig(scene.Urban)
	cfg.Detect.RunDNN = true
	cfg.Track.RunDNN = true

	seq, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]FrameResult, 0, frames)
	for i := 0; i < frames; i++ {
		res, err := seq.Step()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, stripSchedule(res))
	}

	ts, err := NewTailScheduler(TailConfig{Ladder: []int{64, 48, 32}})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(pipe, RunnerOptions{InFlight: 1, Tail: ts})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]FrameResult, 0, frames)
	for res := range r.Run(frames) {
		if res.Err != nil {
			t.Fatalf("frame %d: %v", res.Frame.Index, res.Err)
		}
		got = append(got, stripSchedule(res.FrameResult))
	}
	if len(got) != frames {
		t.Fatalf("delivered %d frames, want %d", len(got), frames)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("frame %d: pinned-window tail run differs from sequential Step", i)
		}
	}
	if ts.WindowLimit() != 1 || ts.MinWindowLimit() != 1 {
		t.Errorf("pinned window moved: limit %d, min %d", ts.WindowLimit(), ts.MinWindowLimit())
	}
}

// TestTailRunnerShrinkKeepsOrder forces the controller to shrink on every
// decision (an unreachable nanosecond target) while frames are in flight:
// the window must collapse 6 -> 1 and the ladder descend to its floor
// mid-run (seven periods), yet delivery stays in admission order and
// results stay bitwise-identical to a static sequential run — in-order
// scale transitions preserve the executors' equivalence.
func TestTailRunnerShrinkKeepsOrder(t *testing.T) {
	const frames = 8 * controlPeriod
	cfg := fastNativeConfig(scene.Urban)

	seq, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]FrameResult, 0, frames)
	for i := 0; i < frames; i++ {
		res, err := seq.Step()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, stripSchedule(res))
	}

	ts, err := NewTailScheduler(TailConfig{
		Target: time.Nanosecond, // every observed latency reads as congestion
		Ladder: []int{64, 48, 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(pipe, RunnerOptions{InFlight: 6, Tail: ts})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for res := range r.Run(frames) {
		if res.Err != nil {
			t.Fatalf("frame %d: %v", res.Frame.Index, res.Err)
		}
		if res.Frame.Index != next {
			t.Fatalf("frame %d delivered at position %d: shrink reordered delivery", res.Frame.Index, next)
		}
		if !reflect.DeepEqual(stripSchedule(res.FrameResult), want[next]) {
			t.Errorf("frame %d: adaptive run differs from static sequential run", next)
		}
		next++
	}
	if next != frames {
		t.Fatalf("delivered %d frames, want %d", next, frames)
	}
	if got := ts.MinWindowLimit(); got != 1 {
		t.Errorf("window never collapsed: min limit %d, want 1", got)
	}
	if got := ts.MaxRungDepth(); got != 2 {
		t.Errorf("ladder depth %d, want 2 (floor)", got)
	}
}

// TestTailSequentialAttach drives the ladder through the SEQUENTIAL
// schedule — a Runner at InFlight 1, the one seat a scheduler has: the
// window is pinned at 1 by construction, the rung descends under the
// unreachable target, and results stay identical to an unscheduled Step
// loop.
func TestTailSequentialAttach(t *testing.T) {
	const frames = 3 * controlPeriod
	cfg := fastNativeConfig(scene.Urban)

	plain, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]FrameResult, 0, frames)
	for i := 0; i < frames; i++ {
		res, err := plain.Step()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, stripSchedule(res))
	}

	ts, err := NewTailScheduler(TailConfig{
		Target: time.Nanosecond,
		Ladder: []int{64, 48, 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(sched, RunnerOptions{InFlight: 1, Tail: ts})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for res := range r.Run(frames) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if !reflect.DeepEqual(stripSchedule(res.FrameResult), want[i]) {
			t.Errorf("frame %d: scheduled sequential run differs from plain Step", i)
		}
		i++
	}
	if i != frames {
		t.Fatalf("delivered %d frames, want %d", i, frames)
	}
	if ts.WindowLimit() != 1 {
		t.Errorf("sequential window = %d, want pinned 1", ts.WindowLimit())
	}
	if got := ts.MaxRungDepth(); got != 2 {
		t.Errorf("ladder depth %d, want 2", got)
	}
}

// TestAnytimeLateAttemptDrain is the pending-drain regression: an injected
// stall past DET's budget abandons the attempt, and the abandoned attempt
// must be drained: no leak, no deadlock, no race, and the miss (not the
// anytime bit) on the frame's mask. Two inputs:
//
//   - anytime/step: the anytime exit is armed by policy, but a stall past
//     the whole budget is a miss, never an anytime commit;
//   - full/runner: the late body runs the whole detector — reading its
//     dependency's slot in place — while the same frame's TRA and FUSION,
//     and the next frame's DET, proceed around it.
//
// Either way the delivered slot holds the degraded output, and the late
// attempt's detections never surface on any delivered frame.
func TestAnytimeLateAttemptDrain(t *testing.T) {
	const frames = 5
	for _, tc := range []struct {
		name     string
		anytime  bool
		inflight int // 0 drives Step
	}{
		{"anytime/step", true, 0},
		{"full/runner", false, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := chaosConfig(t, scene.Urban, "DET:delay=150ms:every=2", 1)
			cfg.Detect.RunDNN = true
			cfg.Detect.InputSize = 32 // small net keeps the DNN-on test quick
			cfg.Deadline.Anytime = tc.anytime
			cfg.Deadline.Budgets[StageDet] = 60 * time.Millisecond
			// The unfaulted detections of every frame: what a late attempt
			// computes, and what must never reach a frame it does not belong to.
			plain := cfg
			plain.Deadline, plain.Inject = DeadlinePolicy{}, nil
			clean, err := NewNative(plain)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]detect.Detection, frames+1)
			for i := range want {
				res, err := clean.Step()
				if err != nil {
					t.Fatal(err)
				}
				want[i] = res.Detections
			}

			p, err := NewNative(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check := func(i int, res FrameResult) {
				if i%2 == 0 {
					if !res.Degraded.Has(StageDet) {
						t.Errorf("frame %d mask = %v, want DET miss", i, res.Degraded)
					}
					if res.Degraded.Anytime() {
						t.Errorf("frame %d: abandoned late attempt leaked its anytime flag", i)
					}
					if res.Detections != nil {
						t.Errorf("frame %d: missed DET frame carries detections", i)
					}
					return
				}
				if res.Degraded.Any() {
					t.Errorf("clean frame %d mask = %v", i, res.Degraded)
				}
				if !reflect.DeepEqual(res.Detections, want[i]) {
					t.Errorf("clean frame %d: detections differ from the unfaulted run", i)
				}
			}
			if tc.inflight == 0 {
				for i := 0; i < frames; i++ {
					res, err := p.Step()
					if err != nil {
						t.Fatalf("frame %d: %v", i, err)
					}
					check(i, res)
				}
				if p.pending[StageDet] == nil {
					t.Error("frame 4's late attempt is not pending after Step")
				}
				p.Drain()
			} else {
				r, err := NewRunner(p, RunnerOptions{InFlight: tc.inflight})
				if err != nil {
					t.Fatal(err)
				}
				for res := range r.Run(frames) {
					if res.Err != nil {
						t.Fatalf("frame %d: %v", res.Frame.Index, res.Err)
					}
					check(res.Frame.Index, res.FrameResult)
				}
			}
			// Step's Drain, or the Runner's own before its channel closed,
			// waited frame 4's late attempt out.
			if p.pending[StageDet] != nil {
				t.Error("frame 4's late attempt is still pending after the drain")
			}
			// Frame 5 is off the injection cadence: it must run clean.
			res, err := p.Step()
			if err != nil {
				t.Fatalf("post-drain frame: %v", err)
			}
			check(frames, res)
			p.Drain()
		})
	}
}

// TestTailRunnerAnytimeStopDrain combines every moving part of this PR
// under -race: an adaptive window collapsing mid-run, anytime-armed DET
// missing its budget every other frame, and a Stop while degraded frames
// (with live late attempts) are in flight. Every admitted frame must still
// deliver in order, and after the result channel closes no abandoned
// attempt may still be touching an engine.
func TestTailRunnerAnytimeStopDrain(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	cfg := anytimeChaosConfig(t, scene.Urban, "DET:delay=120ms:every=2", 3)
	cfg.Detect.RunDNN = true
	cfg.Deadline.Budgets[StageDet] = 15 * time.Millisecond
	p, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NewTailScheduler(TailConfig{
		Target: time.Nanosecond,
		Ladder: []int{64, 48},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunnerOptions{InFlight: 4, Tail: ts})
	if err != nil {
		t.Fatal(err)
	}
	// Stop after two periods: the window has collapsed 4 -> 2 mid-run.
	const stopAt = 2*controlPeriod + 1
	delivered := 0
	sawMiss := false
	for res := range r.Run(0) {
		if res.Err != nil {
			t.Fatalf("frame %d: %v", res.Frame.Index, res.Err)
		}
		if res.Frame.Index != delivered {
			t.Fatalf("frame %d delivered at position %d: out of order", res.Frame.Index, delivered)
		}
		if res.Degraded.Has(StageDet) {
			sawMiss = true
		}
		delivered++
		if delivered == stopAt {
			r.Stop()
		}
	}
	if !sawMiss {
		t.Fatal("scenario produced no DET misses before Stop")
	}
	if delivered < stopAt {
		t.Fatalf("only %d frames delivered", delivered)
	}
	if got := ts.MinWindowLimit(); got != 2 {
		t.Errorf("window reached %d before Stop, want 4 -> 2 over two periods", got)
	}
	// Channel closed => every stage drained. Re-entering must be race-free.
	if _, err := p.Step(); err != nil {
		t.Fatalf("post-close step: %v", err)
	}
	p.Drain()
}

// TestAnytimeCommitsCoarseFrame exercises the anytime COMMIT path of the
// deadline race with the network on: the injected stall eats most (but not
// all) of DET's budget, so the attempt is armed with the remaining-budget
// fraction, stops the network at that layer boundary and commits a
// coarsened detection set inside the budget — the frame carries the Anytime
// bit, not a miss, and nothing is left pending.
func TestAnytimeCommitsCoarseFrame(t *testing.T) {
	cfg := anytimeChaosConfig(t, scene.Urban, "DET:delay=125ms:every=3", 1)
	cfg.Detect.RunDNN = true
	cfg.Deadline.Budgets[StageDet] = 150 * time.Millisecond

	// Reference run, same scene, no faults: the full detection sets.
	clean, err := NewNative(fastNativeConfig(scene.Urban))
	if err != nil {
		t.Fatal(err)
	}
	full := make([]int, 6)
	for i := range full {
		res, err := clean.Step()
		if err != nil {
			t.Fatal(err)
		}
		full[i] = len(res.Detections)
	}

	p, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		res, err := p.Step()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if p.pending[StageDet] != nil {
			t.Errorf("frame %d left a DET attempt pending without a miss", i)
		}
		if i%3 != 0 {
			if res.Degraded.Any() {
				t.Errorf("clean frame %d mask = %v", i, res.Degraded)
			}
			continue
		}
		if !res.Degraded.Anytime() || res.Degraded.AnyMiss() {
			t.Errorf("frame %d mask = %v, want anytime commit without a miss", i, res.Degraded)
		}
		if full[i] > 0 && (len(res.Detections) == 0 || len(res.Detections) > full[i]) {
			t.Errorf("frame %d: anytime set has %d detections, clean run %d — want a non-empty subset",
				i, len(res.Detections), full[i])
		}
	}
}
