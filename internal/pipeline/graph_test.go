package pipeline

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"adsim/internal/constraint"
	"adsim/internal/scene"
	"adsim/internal/telemetry"
)

// TestGraphEncodesFigure1 pins the stage table to the paper's dependency
// law. This is THE topology test: both executors and CriticalPath are
// derived from stageDeps, so no second copy of these assertions exists
// anywhere.
func TestGraphEncodesFigure1(t *testing.T) {
	want := [NumStages][]StageID{
		StageSrc:     nil,
		StageDet:     {StageSrc},
		StageLoc:     {StageSrc},
		StageTra:     {StageDet},
		StageFusion:  {StageTra, StageLoc},
		StageMisplan: {StageLoc},
		StageMotplan: {StageFusion, StageMisplan},
		StageControl: {StageMotplan},
	}
	for id := range NumStages {
		if !slices.Equal(stageDeps[id], want[id]) {
			t.Errorf("%v deps = %v, want %v", id, stageDeps[id], want[id])
		}
	}
	if StageID(99).String() == "" {
		t.Error("out-of-range String must not be empty")
	}
}

// TestStageDepsIsFigure1DAG checks the properties the executors and
// CriticalPath assume of the table: StageID order is topological (every
// dependency has a lower ID), no stage lists a dependency twice, SRC is the
// only root and CONTROL the only sink.
func TestStageDepsIsFigure1DAG(t *testing.T) {
	var consumers [NumStages]int
	for id := range NumStages {
		deps := stageDeps[id]
		if (len(deps) == 0) != (id == StageSrc) {
			t.Errorf("%v has %d dependencies; SRC must be the only root", id, len(deps))
		}
		for i, dep := range deps {
			if dep < 0 || dep >= id {
				t.Errorf("%v depends on %v, which is not an earlier stage", id, dep)
				continue
			}
			if slices.Contains(deps[:i], dep) {
				t.Errorf("%v lists %v twice", id, dep)
			}
			consumers[dep]++
		}
	}
	for id := range NumStages {
		if (consumers[id] == 0) != (id == StageControl) {
			t.Errorf("%v has %d consumers; CONTROL must be the only sink", id, consumers[id])
		}
	}
}

// errInjected is the sentinel the fault-injection tests look for.
var errInjected = errors.New("injected stage fault")

// TestRunnerErrPropagation is the satellite's contract: a frame whose
// mission/motion stage errors is delivered with Err set (and no sealed E2E
// timing), while later frames flow through unaffected. Run under -race
// this also exercises the skip/pass-through path concurrently with healthy
// frames in flight.
func TestRunnerErrPropagation(t *testing.T) {
	const frames = 12
	for _, tc := range []struct {
		name  string
		stage StageID
	}{
		{"misplan", StageMisplan},
		{"motplan", StageMotplan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewNative(fastNativeConfig(scene.Urban))
			if err != nil {
				t.Fatal(err)
			}
			p.inject = func(stage string, frame int) (time.Duration, error) {
				if stage == tc.stage.String() && frame == 3 {
					return 0, fmt.Errorf("frame %d: %w", frame, errInjected)
				}
				return 0, nil
			}
			r, err := NewRunner(p, RunnerOptions{InFlight: 4})
			if err != nil {
				t.Fatal(err)
			}
			delivered := 0
			for res := range r.Run(frames) {
				i := res.Frame.Index
				if i != delivered {
					t.Fatalf("frame %d delivered at position %d: out of order", i, delivered)
				}
				delivered++
				if i == 3 {
					if !errors.Is(res.Err, errInjected) {
						t.Errorf("frame 3 Err = %v, want injected fault", res.Err)
					}
					if res.Timing.E2E != 0 {
						t.Error("failed frame must not seal an E2E timing")
					}
					continue
				}
				if res.Err != nil {
					t.Errorf("healthy frame %d carries error: %v", i, res.Err)
				}
				if res.Timing.E2E <= 0 {
					t.Errorf("healthy frame %d missing E2E timing", i)
				}
				if len(res.Plan.Path.Waypoints) == 0 && res.Plan.Decision.String() == "" {
					t.Errorf("healthy frame %d missing plan", i)
				}
			}
			if delivered != frames {
				t.Fatalf("delivered %d frames, want %d (errored frame stalled the pipeline?)", delivered, frames)
			}
		})
	}
}

// TestRunnerErrThenStopDrains checks the second half of the satellite:
// with every frame erroring, Stop must still drain the window cleanly and
// close the channel.
func TestRunnerErrThenStopDrains(t *testing.T) {
	p, err := NewNative(fastNativeConfig(scene.Highway))
	if err != nil {
		t.Fatal(err)
	}
	p.inject = func(stage string, frame int) (time.Duration, error) {
		if stage == StageMisplan.String() {
			return 0, errInjected
		}
		return 0, nil
	}
	r, err := NewRunner(p, RunnerOptions{InFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	deadline := time.After(60 * time.Second)
	ch := r.Run(0) // unbounded: only Stop ends the run
	for {
		select {
		case res, ok := <-ch:
			if !ok {
				if delivered < 5 {
					t.Fatalf("only %d frames delivered before close", delivered)
				}
				if delivered > 5+r.InFlight() {
					t.Errorf("%d frames delivered after Stop at 5; window is %d",
						delivered-5, r.InFlight())
				}
				return
			}
			if !errors.Is(res.Err, errInjected) {
				t.Fatalf("frame %d Err = %v, want injected fault", res.Frame.Index, res.Err)
			}
			delivered++
			if delivered == 5 {
				r.Stop()
			}
		case <-deadline:
			t.Fatal("runner failed to drain after Stop with erroring frames")
		}
	}
}

// TestStepErrPropagation mirrors the runner test on the sequential
// executor: same graph, same skip semantics.
func TestStepErrPropagation(t *testing.T) {
	p, err := NewNative(fastNativeConfig(scene.Urban))
	if err != nil {
		t.Fatal(err)
	}
	p.inject = func(stage string, frame int) (time.Duration, error) {
		if stage == StageMotplan.String() && frame == 1 {
			return 0, errInjected
		}
		return 0, nil
	}
	if _, err := p.Step(); err != nil {
		t.Fatalf("frame 0: %v", err)
	}
	res, err := p.Step()
	if !errors.Is(err, errInjected) {
		t.Fatalf("frame 1 err = %v, want injected fault", err)
	}
	if res.Timing.E2E != 0 {
		t.Error("failed frame must not seal an E2E timing")
	}
	res, err = p.Step()
	if err != nil {
		t.Fatalf("frame 2 after fault: %v", err)
	}
	if res.Timing.E2E <= 0 {
		t.Error("frame 2 missing E2E timing")
	}
}

// TestExecutorsEmitEquivalentTelemetry runs the same scenario through Step
// and through the Runner, each with its own collector, and checks both
// emit one span per stage per frame, kernel sub-spans included, plus one
// FrameDone per frame.
func TestExecutorsEmitEquivalentTelemetry(t *testing.T) {
	const frames = 6
	mk := func() (Config, *telemetry.Collector) {
		cfg := fastNativeConfig(scene.Urban)
		col := telemetry.NewCollector(0)
		cfg.Telemetry = col
		return cfg, col
	}

	seqCfg, seqCol := mk()
	seq, err := NewNative(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if _, err := seq.Step(); err != nil {
			t.Fatal(err)
		}
	}

	pipeCfg, pipeCol := mk()
	pipe, err := NewNative(pipeCfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(pipe, RunnerOptions{InFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	for res := range r.Run(frames) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}

	for _, col := range []*telemetry.Collector{seqCol, pipeCol} {
		for id := StageID(0); id < NumStages; id++ {
			if got := col.SpanCount(id.String()); got != frames {
				t.Errorf("stage %v recorded %d spans, want %d", id, got, frames)
			}
		}
		if got := col.Frames(); got != frames {
			t.Errorf("collector saw %d frames, want %d", got, frames)
		}
		// LOC's feature-extraction kernel runs every frame.
		if got := col.SpanCount("LOC/fe"); got != frames {
			t.Errorf("LOC/fe sub-spans = %d, want %d", got, frames)
		}
		// Stage execution must account for a nonzero share of wall time.
		if col.ExecSumMs("LOC") <= 0 || col.ExecSumMs("LOC/fe") <= 0 {
			t.Error("LOC exec sums missing")
		}
		if col.ExecSumMs("LOC/fe") > col.ExecSumMs("LOC") {
			t.Error("LOC/fe kernel sum exceeds LOC stage sum")
		}
	}
}

// TestRunnerFeedsLiveMonitor wires the live constraint monitor as the
// runner's sink — the always-on deployment shape — and checks it folds
// every delivered frame.
func TestRunnerFeedsLiveMonitor(t *testing.T) {
	const frames = 8
	cfg := fastNativeConfig(scene.Highway)
	mon := constraint.NewMonitor(constraint.MonitorConfig{Window: 64})
	col := telemetry.NewCollector(0)
	cfg.Telemetry = telemetry.Multi(col, mon)
	p, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunnerOptions{InFlight: 3})
	if err != nil {
		t.Fatal(err)
	}
	for res := range r.Run(frames) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	snap := mon.Snapshot()
	if snap.Total != frames {
		t.Errorf("monitor folded %d frames, want %d", snap.Total, frames)
	}
	if snap.TailMs <= 0 || snap.FPS <= 0 {
		t.Errorf("monitor measurements empty: %+v", snap)
	}
	// Native tiny-scale frames on a dev machine won't satisfy the 20001
	// sample floor; predictability must therefore be failing, honestly.
	if snap.Predictability.Passed {
		t.Error("predictability cannot pass with 8 samples")
	}
	if col.Frames() != frames {
		t.Errorf("collector saw %d frames", col.Frames())
	}
}
