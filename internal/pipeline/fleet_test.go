package pipeline

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"adsim/internal/dnn"
	"adsim/internal/faultinject"
	"adsim/internal/scene"
	"adsim/internal/slam"
	"adsim/internal/testutil"
)

// surveyedBase surveys frames of the template's scenario into a prior map
// and returns its serialized bytes: fleet and solo runs each decode their
// own copy, so every run sees identical map content with the same
// serialization rounding.
func surveyedBase(t *testing.T, cfg Config, frames int) []byte {
	t.Helper()
	base := slam.NewPriorMap()
	eng, err := slam.NewEngine(cfg.SLAM, base)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := scene.New(cfg.Scene)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		f := gen.Step()
		eng.Survey(f.Image, f.EgoPose)
	}
	var buf bytes.Buffer
	if _, err := base.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeBase(t *testing.T, raw []byte) *slam.PriorMap {
	t.Helper()
	m, err := slam.ReadPriorMap(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// collectFleet runs the fleet and collects each vehicle's delivered
// sequence (schedule-stripped, like the chaos harness).
func collectFleet(t *testing.T, f *Fleet, frames int) ([]chaosRun, FleetReport) {
	t.Helper()
	runs := make([]chaosRun, len(f.vehicles))
	// Each vehicle index is appended to by exactly one goroutine, so the
	// per-vehicle slices need no lock.
	rep := f.Run(frames, func(v int, res RunnerResult) {
		runs[v].results = append(runs[v].results, stripSchedule(res.FrameResult))
		runs[v].masks = append(runs[v].masks, res.Degraded)
		runs[v].errs = append(runs[v].errs, errString(res.Err))
	})
	return runs, rep
}

// The fleet acceptance bar: N vehicles sharing one executor, one network
// cache and one prior-map store must deliver, per vehicle,
// detections/tracks/poses bitwise-identical to the same seed run solo
// through an ordinary Runner with private engines and a private map. The
// native DNNs are ON so the vehicles' forward passes really run
// concurrently through the shared networks.
func TestFleetMatchesSoloRunners(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const vehicles, frames = 3, 8
	cfg := fastNativeConfig(scene.Urban)
	cfg.Detect.RunDNN = true
	cfg.Detect.InputSize = 32 // small net keeps the DNN-on test quick
	cfg.Track.RunDNN = true
	cfg.SurveyFrames = 0 // the shared base below is the surveyed map
	raw := surveyedBase(t, cfg, 20)

	base := decodeBase(t, raw)
	baseLen := base.Len()
	f, err := NewFleet(FleetConfig{
		Vehicles:  vehicles,
		Config:    cfg,
		InFlight:  4,
		SharedMap: base,
	})
	if err != nil {
		t.Fatal(err)
	}
	fleetRuns, rep := collectFleet(t, f, frames)

	for v := 0; v < vehicles; v++ {
		solo := cfg
		solo.Scene.Seed = cfg.Scene.Seed + int64(v)
		solo.MapStore = decodeBase(t, raw) // private monolithic copy
		requireIdenticalRuns(t, runChaosRunner(t, solo, frames, 4), fleetRuns[v])
	}

	if base.Len() != baseLen {
		t.Errorf("fleet run mutated the shared base: %d keyframes, had %d", base.Len(), baseLen)
	}
	if rep.Frames != vehicles*frames {
		t.Errorf("fleet delivered %d frames, want %d", rep.Frames, vehicles*frames)
	}
	if rep.Fleet.N != vehicles*frames {
		t.Errorf("fleet monitor folded %d frames, want %d", rep.Fleet.N, vehicles*frames)
	}
	if len(rep.PerVehicle) != vehicles {
		t.Fatalf("report has %d vehicle scorecards, want %d", len(rep.PerVehicle), vehicles)
	}
	for _, vs := range rep.PerVehicle {
		if vs.Frames != frames {
			t.Errorf("vehicle %d delivered %d frames, want %d", vs.Vehicle, vs.Frames, frames)
		}
	}
	if s := rep.String(); !strings.Contains(s, "fleet P99.99") || !strings.Contains(s, "vehicle 0") {
		t.Errorf("fleet verdict missing expected lines:\n%s", s)
	}
}

// TestFleetSplitsCoreBudget pins the share rule: FleetConfig.Executor is the
// fleet's core budget, and every vehicle's DET and TRA engines run at
// max(1, budget/Vehicles) kernel workers — also when the template names the
// budget executor itself (as the benchmark harness does), and for a vehicle
// AddVehicle provisions later, which keeps the share NewFleet computed.
func TestFleetSplitsCoreBudget(t *testing.T) {
	cfg := fastNativeConfig(scene.Urban)
	cfg.SurveyFrames = 0
	cases := []struct {
		name             string
		budget, vehicles int
		inTemplate, add  bool
		want             int
	}{
		{name: "budget 2, 1 vehicle", budget: 2, vehicles: 1, want: 2},
		{name: "budget 2, 2 vehicles", budget: 2, vehicles: 2, want: 1},
		{name: "budget 2, 3 vehicles", budget: 2, vehicles: 3, want: 1},
		{name: "budget 8, 3 vehicles", budget: 8, vehicles: 3, want: 2},
		{name: "budget named in template", budget: 2, vehicles: 3, inTemplate: true, want: 1},
		{name: "added vehicle keeps the share", budget: 8, vehicles: 2, add: true, want: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			budget := dnn.NewExecutor(tc.budget)
			vcfg := cfg
			if tc.inTemplate {
				vcfg.Detect.Executor, vcfg.Track.Executor = budget, budget
			}
			f, err := NewFleet(FleetConfig{Vehicles: tc.vehicles, Config: vcfg, Executor: budget})
			if err != nil {
				t.Fatal(err)
			}
			if tc.add {
				if _, err := f.AddVehicle(); err != nil {
					t.Fatal(err)
				}
			}
			for _, v := range f.vehicles {
				if got := v.p.cfg.Detect.Executor.Workers(); got != tc.want {
					t.Errorf("vehicle %d DET: %d kernel workers, want %d", v.id, got, tc.want)
				}
				if got := v.p.cfg.Track.Executor.Workers(); got != tc.want {
					t.Errorf("vehicle %d TRA: %d kernel workers, want %d", v.id, got, tc.want)
				}
			}
		})
	}
}

// TestFleetCoreShareParity crosses worker counts by construction: a DNN-on
// fleet of three on a 2-worker budget runs every vehicle's engines at one
// kernel worker, and each vehicle must still deliver results
// bitwise-identical to the same seed run solo on a 2-worker executor.
func TestFleetCoreShareParity(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const vehicles, frames = 3, 8
	cfg := fastNativeConfig(scene.Urban)
	cfg.Detect.RunDNN = true
	cfg.Detect.InputSize = 32 // small net keeps the DNN-on test quick
	cfg.Track.RunDNN = true
	cfg.SurveyFrames = 0 // the shared base below is the surveyed map
	raw := surveyedBase(t, cfg, 20)

	f, err := NewFleet(FleetConfig{
		Vehicles:  vehicles,
		Config:    cfg,
		InFlight:  4,
		Executor:  dnn.NewExecutor(2),
		SharedMap: decodeBase(t, raw),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Vehicle(0).cfg.Detect.Executor.Workers(); got != 1 {
		t.Fatalf("fleet vehicles run at %d kernel workers, want 1", got)
	}
	fleetRuns, _ := collectFleet(t, f, frames)

	for v := 0; v < vehicles; v++ {
		solo := cfg
		solo.Scene.Seed = cfg.Scene.Seed + int64(v)
		solo.MapStore = decodeBase(t, raw)
		exec := dnn.NewExecutor(2)
		solo.Detect.Executor, solo.Track.Executor = exec, exec
		requireIdenticalRuns(t, runChaosRunner(t, solo, frames, 4), fleetRuns[v])
	}
}

// Chaos isolation: one vehicle with an injected DET stall (virtual
// enforcement, so the degrade sequence is deterministic) must degrade on
// schedule while every OTHER vehicle's results and masks stay identical to
// its solo run — a faulted stream cannot perturb its neighbors through the
// shared executor or the shared map.
func TestFleetChaosIsolation(t *testing.T) {
	const vehicles, frames, faulted = 3, 15, 1
	const spec = "DET:delay=30ms:every=5"
	cfg := fastNativeConfig(scene.Urban)
	cfg.SurveyFrames = 0
	cfg.Deadline = DeadlinePolicy{Enforce: true, Virtual: true}
	cfg.Deadline.Budgets[StageDet] = 20 * time.Millisecond // under the 30ms injected stall
	raw := surveyedBase(t, cfg, 20)

	newInject := func(t *testing.T) func(string, int) (time.Duration, error) {
		inj, err := faultinject.New(faultinject.MustParse(spec, 7))
		if err != nil {
			t.Fatal(err)
		}
		return inj.Stage
	}

	f, err := NewFleet(FleetConfig{
		Vehicles:  vehicles,
		Config:    cfg,
		InFlight:  4,
		Executor:  dnn.NewExecutor(2),
		SharedMap: decodeBase(t, raw),
		Injects: map[int]func(string, int) (time.Duration, error){
			faulted: newInject(t),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fleetRuns, _ := collectFleet(t, f, frames)

	for v := 0; v < vehicles; v++ {
		solo := cfg
		solo.Scene.Seed = cfg.Scene.Seed + int64(v)
		solo.MapStore = decodeBase(t, raw)
		if v == faulted {
			solo.Inject = newInject(t)
		}
		requireIdenticalRuns(t, runChaosRunner(t, solo, frames, 4), fleetRuns[v])
	}

	degraded := 0
	for _, m := range fleetRuns[faulted].masks {
		if m.Any() {
			degraded++
		}
	}
	if degraded == 0 {
		t.Error("injected vehicle never degraded; the scenario is not exercising enforcement")
	}
	for v := 0; v < vehicles; v++ {
		if v == faulted {
			continue
		}
		for i, m := range fleetRuns[v].masks {
			if m.Any() {
				t.Errorf("healthy vehicle %d degraded at frame %d: fault leaked across streams", v, i)
			}
		}
	}
}
