package pipeline

import (
	"math"
	"reflect"
	"testing"
	"time"

	"adsim/internal/constraint"
	"adsim/internal/scene"
	"adsim/internal/telemetry"
	"adsim/internal/testutil"
)

// stripSchedule zeroes the fields that legitimately differ between
// sequential and pipelined execution: wall-clock timings. Everything else —
// detections, tracks, pose, fused frame, plan, guidance, command — must be
// bitwise-identical.
func stripSchedule(res FrameResult) FrameResult {
	res.Timing = StageTiming{}
	return res
}

// TestRunnerDeterminismMatchesSequential is the determinism guard of the
// concurrency model: a Runner with ≥4 frames in flight must deliver results
// in frame order that are bitwise-identical (modulo timing) to a sequential
// Step loop on the same seed. Run under -race this also exercises every
// cross-frame stage handoff.
func TestRunnerDeterminismMatchesSequential(t *testing.T) {
	const frames = 10
	cfg := fastNativeConfig(scene.Urban)
	// Enable the native DNNs so the race detector also covers the parallel
	// conv/FC kernels and the shared tracker tower under pipelining.
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

	pipe, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(pipe, RunnerOptions{InFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]FrameResult, 0, frames)
	for res := range r.Run(frames) {
		if res.Err != nil {
			t.Fatalf("frame %d: %v", res.Frame.Index, res.Err)
		}
		if res.Wall <= 0 {
			t.Fatalf("frame %d: missing wall latency", res.Frame.Index)
		}
		got = append(got, stripSchedule(res.FrameResult))
	}

	if len(got) != frames {
		t.Fatalf("runner delivered %d frames, want %d", len(got), frames)
	}
	for i := range got {
		if got[i].Frame.Index != i {
			t.Fatalf("result %d carries frame index %d: out of order", i, got[i].Frame.Index)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("frame %d: pipelined result differs from sequential Step", i)
		}
	}
}

func TestRunnerValidation(t *testing.T) {
	if _, err := NewRunner(nil, RunnerOptions{}); err == nil {
		t.Error("nil pipeline accepted")
	}
	p, err := NewNative(fastNativeConfig(scene.Highway))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(p, RunnerOptions{InFlight: -1}); err == nil {
		t.Error("negative InFlight accepted")
	}
	r, err := NewRunner(p, RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.InFlight() != DefaultInFlight {
		t.Errorf("InFlight = %d, want default %d", r.InFlight(), DefaultInFlight)
	}
}

// TestRunnerGracefulStop checks the drain contract: after Stop, every
// already-admitted frame is still delivered (in order) and the result
// channel closes without deadlock.
func TestRunnerGracefulStop(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	p, err := NewNative(fastNativeConfig(scene.Highway))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunnerOptions{InFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	ch := r.Run(0) // unbounded: only Stop ends the run
	next := 0
	for res := range ch {
		if res.Frame.Index != next {
			t.Fatalf("frame %d delivered, want %d", res.Frame.Index, next)
		}
		next++
		if next == 5 {
			r.Stop()
			r.Stop() // idempotent
		}
	}
	if next < 5 {
		t.Fatalf("only %d frames delivered before close", next)
	}
	// The window bounds the post-Stop drain to the frames already admitted.
	if next > 5+r.InFlight() {
		t.Errorf("%d frames delivered after Stop at 5; window is %d", next-5, r.InFlight())
	}
}

// TestRunnerRunIdempotent checks that a second Run returns the same channel
// instead of spawning a second stage graph over the shared engines.
func TestRunnerRunIdempotent(t *testing.T) {
	p, err := NewNative(fastNativeConfig(scene.Highway))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunnerOptions{InFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := r.Run(3)
	if b := r.Run(99); a != b {
		t.Error("second Run returned a different channel")
	}
	deadline := time.After(30 * time.Second)
	delivered := 0
	for {
		select {
		case _, ok := <-a:
			if !ok {
				if delivered != 3 {
					t.Fatalf("delivered %d frames, want 3", delivered)
				}
				return
			}
			delivered++
		case <-deadline:
			t.Fatal("runner did not finish")
		}
	}
}

// wallSink records each delivered frame's FrameEnd.Wall: Step's latency,
// which its FrameResult does not carry.
type wallSink struct{ walls []time.Duration }

func (s *wallSink) Span(telemetry.Span) {}

func (s *wallSink) FrameDone(f telemetry.FrameEnd) { s.walls = append(s.walls, f.Wall) }

// runnerWalls drives a Runner at window w and returns each delivered
// frame's Wall.
func runnerWalls(t *testing.T, cfg Config, frames, w int) []time.Duration {
	t.Helper()
	p, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunnerOptions{InFlight: w})
	if err != nil {
		t.Fatal(err)
	}
	var walls []time.Duration
	for res := range r.Run(frames) {
		walls = append(walls, res.Wall)
	}
	p.Drain()
	return walls
}

// TestVirtualFrameClock pins the frame clock of deadline.go. At InFlight 1
// a frame's virtual latency is the critical path of its stages' charged
// times (the injected delay, or the budget on a miss). At W > 1 a frame is
// admitted at the virtual delivery of the frame W places ahead and queues
// behind the stage's previous frame, and the latencies under a DET stall
// burst are the hand-computed tables below. Step, the Runner and a fleet
// vehicle deliver the same sequence at the same window.
func TestVirtualFrameClock(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	step := func(cfg Config, frames int) []time.Duration {
		sink := &wallSink{}
		cfg.Telemetry = sink
		runChaosStep(t, cfg, frames)
		return sink.walls
	}
	fleet := func(cfg Config, frames, w int) []time.Duration {
		f, err := NewFleet(FleetConfig{Vehicles: 1, Config: cfg, InFlight: w})
		if err != nil {
			t.Fatal(err)
		}
		var walls []time.Duration
		f.Run(frames, func(_ int, res RunnerResult) { walls = append(walls, res.Wall) })
		return walls
	}

	t.Run("critical-path", func(t *testing.T) {
		// Stalls on both branches, a DET miss (50 ms against 35) and an
		// unbudgeted camera stall.
		const spec, frames = "SRC:delay=5ms:every=6,DET:delay=50ms:every=5:burst=2,LOC:delay=20ms:every=3,MOTPLAN:delay=10ms:every=4", 12
		cfg := chaosConfig(t, scene.Urban, spec, 3)
		budgets := cfg.Deadline.resolve()
		var want []time.Duration
		for i := 0; i < frames; i++ {
			var charged [NumStages]time.Duration
			for id := range NumStages {
				delay, _ := cfg.Inject(id.String(), i)
				if b := budgets[id]; b > 0 && delay > b {
					delay = b
				}
				charged[id] = delay
			}
			want = append(want, CriticalPath(charged))
		}
		if got := step(cfg, frames); !reflect.DeepEqual(got, want) {
			t.Errorf("Step latencies %v, want the critical paths %v", got, want)
		}
		if got := runnerWalls(t, cfg, frames, 1); !reflect.DeepEqual(got, want) {
			t.Errorf("Runner latencies %v, want the critical paths %v", got, want)
		}
	})

	t.Run("queueing", func(t *testing.T) {
		// 30 ms DET stalls (inside the 35 ms budget) on frames 0-2 and 8-10.
		const spec, frames = "DET:delay=30ms:every=8:burst=3", 14
		want := map[int][]time.Duration{
			1: ms(30, 30, 30, 0, 0, 0, 0, 0, 30, 30, 30, 0, 0, 0),
			2: ms(30, 60, 60, 30, 0, 0, 0, 0, 30, 60, 60, 30, 0, 0),
			3: ms(30, 60, 90, 60, 30, 0, 0, 0, 30, 60, 90, 60, 30, 0),
			4: ms(30, 60, 90, 90, 60, 30, 0, 0, 30, 60, 90, 90, 60, 30),
		}
		cfg := func() Config { return chaosConfig(t, scene.Urban, spec, 3) }
		if got := step(cfg(), frames); !reflect.DeepEqual(got, want[1]) {
			t.Errorf("Step: latencies %v, want %v", got, want[1])
		}
		for w := 1; w <= 4; w++ {
			if got := runnerWalls(t, cfg(), frames, w); !reflect.DeepEqual(got, want[w]) {
				t.Errorf("Runner W=%d: latencies %v, want %v", w, got, want[w])
			}
			if got := fleet(cfg(), frames, w); !reflect.DeepEqual(got, want[w]) {
				t.Errorf("fleet vehicle W=%d: latencies %v, want %v", w, got, want[w])
			}
		}
	})
}

// TestVirtualFrameRate: on the frame clock a frame is delivered its virtual
// latency after its capture time, so a Monitor on the pipeline measures the
// scene's frame rate, not the host's, and a faulted run's live report is a
// pure function of (scenario, seed).
func TestVirtualFrameRate(t *testing.T) {
	monitor := func(cfg Config) constraint.LiveReport {
		mon := constraint.NewMonitor(constraint.MonitorConfig{})
		cfg.Telemetry = mon
		runChaosStep(t, cfg, 12)
		return mon.Snapshot()
	}
	clean := fastNativeConfig(scene.Urban)
	clean.Deadline = DeadlinePolicy{Enforce: true, Virtual: true}
	if rep := monitor(clean); math.Abs(rep.FPS-clean.Scene.FPS) > 1e-9*clean.Scene.FPS {
		t.Errorf("clean run measures %v fps, want the scene's %v", rep.FPS, clean.Scene.FPS)
	}
	faulted := chaosConfig(t, scene.Urban, "LOC:delay=40ms:every=4:burst=2,DET:delay=20ms:every=3", 5)
	a, b := monitor(faulted), monitor(faulted)
	if a.TotalDegraded == 0 {
		t.Fatalf("faulted run degraded no frame: %+v", a)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("faulted run's live report differs between two runs:\n%+v\n%+v", a, b)
	}
}

// TestVirtualFrameRateIgnoresEndLatency: the frame clock has no service
// time, so a run's rate is the scene's whatever the latency of its first
// and last frames. Here only the last frame carries an in-budget LOC stall.
func TestVirtualFrameRateIgnoresEndLatency(t *testing.T) {
	const frames = 24
	cfg := chaosConfig(t, scene.Urban, "LOC:delay=25ms:frames=23", 1)
	mon := constraint.NewMonitor(constraint.MonitorConfig{})
	cfg.Telemetry = mon
	run := runChaosStep(t, cfg, frames)
	if run.masks[frames-1] != 0 {
		t.Fatalf("the 25 ms stall blew LOC's budget: mask %v", run.masks[frames-1])
	}
	rep := mon.Snapshot()
	if rep.MeanMs == 0 {
		t.Fatal("the last frame's stall left no latency on the frame clock")
	}
	if math.Abs(rep.FPS-cfg.Scene.FPS) > 1e-9*cfg.Scene.FPS || !rep.Performance.Passed {
		t.Errorf("measures %v fps (performance %v), want the scene's %v", rep.FPS, rep.Performance, cfg.Scene.FPS)
	}
}
