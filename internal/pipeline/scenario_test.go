package pipeline

import (
	"slices"
	"testing"

	"adsim/internal/faultinject"
	"adsim/internal/scenario"
	"adsim/internal/scene"
)

// This file extends the chaos suite to scenario programs: the executor
// equivalence contract must hold when the world itself changes mid-run
// (arrival-process spawns, driver maneuvers, blackout/occlusion windows,
// loop segments) and the program's fault rules fire on top.

// TestFaultTargetsAreStageNames pins the fault validator's target list
// to the graph's canonical stage names, in graph order: a renamed stage
// fails here instead of leaving every rule that names it silently inert.
func TestFaultTargetsAreStageNames(t *testing.T) {
	var names []string
	for id := StageID(0); id < NumStages; id++ {
		names = append(names, id.String())
	}
	if !slices.Equal(scenario.StageNames, names) {
		t.Fatalf("scenario.StageNames = %v, pipeline stages = %v", scenario.StageNames, names)
	}
}

// scenarioChaosProgram is a compound program scaled to the chaos suite's
// short runs (24 frames at 10 fps = 2.4 s): dense aggressive traffic, then
// a dusk phase with a blackout and an occlusion, with DET/LOC faults
// firing throughout.
const scenarioChaosProgram = `
phase 0-1s: density=30/km, peds=10/km, driver=aggressive
phase 1-2.4s: illumination=0.5, blackout=200ms@1.2s, occlusion=300ms@1.6s
DET:delay=50ms:every=4, LOC:delay=90ms:p=0.3
`

// scenarioChaosConfig compiles a program into a virtual-enforcement config:
// timeline onto the scene, fault rules onto the injector.
func scenarioChaosConfig(t *testing.T, kind scene.Kind, src string, seed int64) Config {
	t.Helper()
	prog, err := scenario.Parse("chaos", src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastNativeConfig(kind)
	cfg.Scene = prog.Configure(cfg.Scene)
	cfg.Deadline = DeadlinePolicy{Enforce: true, Virtual: true}
	inj, err := faultinject.New(faultinject.FromProgram(prog, seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Inject = inj.Stage
	return cfg
}

// TestScenarioProgramStepRunnerEquivalence: under a full scenario program —
// world phases and fault rules together — the sequential Step loop and the
// pipelined Runner deliver bitwise-identical result, DegradedMask and error
// sequences.
func TestScenarioProgramStepRunnerEquivalence(t *testing.T) {
	const frames = 24
	for _, seed := range []int64{1, 9} {
		seq := runChaosStep(t, scenarioChaosConfig(t, scene.Urban, scenarioChaosProgram, seed), frames)
		pipe := runChaosRunner(t, scenarioChaosConfig(t, scene.Urban, scenarioChaosProgram, seed), frames, 4)
		requireIdenticalRuns(t, seq, pipe)

		degraded := 0
		for _, m := range seq.masks {
			if m.Any() {
				degraded++
			}
		}
		if degraded == 0 {
			t.Errorf("seed %d: scenario program produced no degraded frames", seed)
		}
	}
}

// TestScenarioProgramReplayIdentical: the same program and seed replays the
// identical delivered sequence — the pipeline-level half of the program
// replayability contract (the scene-level half is in internal/scene).
func TestScenarioProgramReplayIdentical(t *testing.T) {
	const frames = 20
	a := runChaosStep(t, scenarioChaosConfig(t, scene.Highway, scenarioChaosProgram, 3), frames)
	b := runChaosStep(t, scenarioChaosConfig(t, scene.Highway, scenarioChaosProgram, 3), frames)
	requireIdenticalRuns(t, a, b)
}

// TestFleetSceneAssignment: FleetConfig.Scenes assigns a different scenario
// to one vehicle. The assigned vehicle must run its own world (visible in
// its ego trajectory) while the others keep the template's, and the
// assigned scene must still get a per-vehicle seed.
func TestFleetSceneAssignment(t *testing.T) {
	tmpl := fastNativeConfig(scene.Highway)
	tmpl.SurveyFrames = 10

	slow := tmpl.Scene
	slow.EgoSpeed = 5 // template highway ego drives 28 m/s
	prog := scenario.MustParse("crawl", "phase 0-: density=0/km, peds=0/km")
	slow = prog.Configure(slow)

	f, err := NewFleet(FleetConfig{
		Vehicles: 2,
		Config:   tmpl,
		Scenes:   map[int]scene.Config{1: slow},
		InFlight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 10
	var lastZ [2]float64
	rep := f.Run(frames, func(vehicle int, res RunnerResult) {
		if res.Err != nil {
			t.Errorf("vehicle %d frame %d: %v", vehicle, res.Frame.Index, res.Err)
		}
		if res.Frame.Index == frames-1 {
			lastZ[vehicle] = res.Frame.EgoPose.Z
		}
	})
	if rep.Frames != 2*frames {
		t.Fatalf("delivered %d frames, want %d", rep.Frames, 2*frames)
	}
	// 9 frames at 28 m/s vs 5 m/s: the assigned vehicle must trail far behind.
	if lastZ[1] >= lastZ[0]/2 {
		t.Errorf("assigned scene ignored: ego Z = %v (template %v)", lastZ[1], lastZ[0])
	}
	// Ego advances EgoSpeed/FPS per frame starting at frame 1.
	if want := 5 * float64(frames-1) / 10; lastZ[1] <= 0 || lastZ[1] > 2*want {
		t.Errorf("assigned vehicle Z = %g, want ~%g", lastZ[1], want)
	}
}
