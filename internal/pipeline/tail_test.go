package pipeline

import (
	"reflect"
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
		{Window: -1},
		{Period: -1},
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

// TestTailControllerLaw drives the controller with synthetic delivered
// latencies and checks the committed escalation order: congestion shrinks
// the window all the way to 1 BEFORE the ladder gives up resolution, and
// recovery climbs the ladder back to base BEFORE the window regrows.
func TestTailControllerLaw(t *testing.T) {
	ts, err := NewTailScheduler(TailConfig{
		Target: 100 * time.Millisecond, // watermarks: high 75ms, low 45ms
		Window: 8,
		Period: 4,
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

	feed := func(n int, wallMs float64) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, ok := ts.admit(); !ok {
				t.Fatal("admit interrupted")
			}
			ts.frameDone(wallMs)
			// Escalation-order invariant, both directions: the ladder only
			// ever leaves base resolution while the window sits at its floor.
			if ts.InputSize() < 64 && ts.WindowLimit() != 1 {
				t.Fatalf("rung below base at window %d: escalation order violated", ts.WindowLimit())
			}
		}
	}

	// Congestion: 90ms tail, decision every 4 frames. Two decisions take the
	// window 3 -> 1; the ladder must still be at base.
	feed(8, 90)
	if got := ts.WindowLimit(); got != 1 {
		t.Fatalf("after 2 congested periods WindowLimit = %d, want 1", got)
	}
	if got := ts.InputSize(); got != 64 {
		t.Fatalf("ladder moved before the window floor: InputSize = %d", got)
	}
	// Two more decisions descend the ladder 64 -> 48 -> 32.
	feed(8, 90)
	if got := ts.InputSize(); got != 32 {
		t.Fatalf("after 4 congested periods InputSize = %d, want 32", got)
	}
	// Both knobs at their floor: further congestion holds.
	feed(4, 90)
	if ts.WindowLimit() != 1 || ts.InputSize() != 32 {
		t.Fatalf("floors moved: window %d, size %d", ts.WindowLimit(), ts.InputSize())
	}
	if ts.MinWindowLimit() != 1 || ts.MaxRungDepth() != 2 {
		t.Fatalf("trajectory: minLimit %d (want 1), maxRung %d (want 2)",
			ts.MinWindowLimit(), ts.MaxRungDepth())
	}

	// Recovery: 10ms frames. The rolling window (8) must first flush the
	// 90ms samples, then every two calm periods step one knob:
	// ladder back to base first, window regrowth last.
	feed(20, 10)
	if got := ts.InputSize(); got != 64 {
		t.Fatalf("after calm recovery InputSize = %d, want base 64", got)
	}
	if got := ts.WindowLimit(); got != 1 {
		t.Fatalf("window regrew before the ladder reached base: limit = %d", got)
	}
	feed(20, 10)
	if got := ts.WindowLimit(); got != 3 {
		t.Fatalf("after sustained calm WindowLimit = %d, want ceiling 3", got)
	}
	if got := ts.Monitor().Snapshot().Total; got != 60 {
		t.Fatalf("monitor folded %d frames, want 60", got)
	}
}

// TestTailAdmitBlocksAndInterrupts pins the admission contract: admit
// blocks once in-flight reaches the live limit, frameDone frees a slot, and
// interrupt permanently unblocks waiters with ok=false.
func TestTailAdmitBlocksAndInterrupts(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	ts, err := NewTailScheduler(TailConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.attach(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := ts.admit(); !ok {
		t.Fatal("first admit refused")
	}
	admitted := make(chan bool, 2)
	go func() {
		_, ok := ts.admit()
		admitted <- ok
	}()
	select {
	case <-admitted:
		t.Fatal("second admit did not block at limit 1")
	case <-time.After(20 * time.Millisecond):
	}
	ts.frameDone(1)
	select {
	case ok := <-admitted:
		if !ok {
			t.Fatal("unblocked admit reported not-ok")
		}
	case <-time.After(time.Second):
		t.Fatal("frameDone did not unblock admission")
	}
	go func() {
		_, ok := ts.admit()
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
// mid-run, yet delivery stays in admission order and results stay
// bitwise-identical to a static sequential run — in-order scale transitions
// preserve the executors' equivalence.
func TestTailRunnerShrinkKeepsOrder(t *testing.T) {
	const frames = 40
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
		Window: 16,
		Period: 2,
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
	if got := ts.Monitor().Snapshot().Total; got != frames {
		t.Errorf("monitor folded %d frames, want %d", got, frames)
	}
}

// TestTailSequentialAttach drives the ladder through the SEQUENTIAL
// schedule — a Runner at InFlight 1, the one seat a scheduler has: the
// window is pinned at 1 by construction, the rung descends under the
// unreachable target, and results stay identical to an unscheduled Step
// loop.
func TestTailSequentialAttach(t *testing.T) {
	const frames = 20
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
		Window: 16,
		Period: 2,
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
		Window: 8,
		Period: 2,
		Ladder: []int{64, 48},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunnerOptions{InFlight: 4, Tail: ts})
	if err != nil {
		t.Fatal(err)
	}
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
		if delivered == 5 {
			r.Stop()
		}
	}
	if !sawMiss {
		t.Fatal("scenario produced no DET misses before Stop")
	}
	if delivered < 5 {
		t.Fatalf("only %d frames delivered", delivered)
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
