package pipeline

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"adsim/internal/accel"
	"adsim/internal/control"
	"adsim/internal/mission"
	"adsim/internal/plan"
	"adsim/internal/scene"
)

func fastNativeConfig(kind scene.Kind) Config {
	cfg := DefaultConfig(kind)
	cfg.Scene.Width, cfg.Scene.Height = 384, 192
	cfg.SurveyFrames = 20
	cfg.Detect.RunDNN = false // keep unit tests fast
	cfg.Track.RunDNN = false
	return cfg
}

func TestNativePipelineRuns(t *testing.T) {
	p, err := NewNative(fastNativeConfig(scene.Urban))
	if err != nil {
		t.Fatal(err)
	}
	sawDetection, sawTrack, sawPlan := false, false, false
	for i := 0; i < 15; i++ {
		res, err := p.Step()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(res.Detections) > 0 {
			sawDetection = true
		}
		if len(res.Tracks) > 0 {
			sawTrack = true
		}
		if len(res.Plan.Path.Waypoints) > 0 || res.Plan.Decision == plan.EmergencyStop {
			sawPlan = true
		}
		if res.Timing.E2E <= 0 {
			t.Fatal("missing end-to-end timing")
		}
	}
	if !sawDetection {
		t.Error("no detections in 15 urban frames")
	}
	if !sawTrack {
		t.Error("no tracks in 15 urban frames")
	}
	if !sawPlan {
		t.Error("no plans produced")
	}
}

func TestNativeLocalizesOnSurveyedRoute(t *testing.T) {
	p, err := NewNative(fastNativeConfig(scene.Urban))
	if err != nil {
		t.Fatal(err)
	}
	tracked := 0
	var worst float64
	for i := 0; i < 15; i++ {
		res, err := p.Step()
		if err != nil {
			t.Fatal(err)
		}
		if res.Pose.Tracked {
			tracked++
			if e := math.Abs(res.Pose.Pose.Z - res.Frame.EgoPose.Z); e > worst {
				worst = e
			}
		}
	}
	if tracked < 10 {
		t.Errorf("localized only %d/15 frames", tracked)
	}
	if worst > 4 {
		t.Errorf("worst pose error %.2f m", worst)
	}
}

// TestCriticalPath drives the dependency law on hand-built stage
// durations, one row per branch that can dominate, and checks that a
// Step frame's E2E is the law applied to its Timing.
func TestCriticalPath(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	for _, c := range []struct {
		name string
		d    [NumStages]time.Duration
		want time.Duration
	}{
		{"zero", [NumStages]time.Duration{}, 0},
		{"DET+TRA dominates", [NumStages]time.Duration{
			StageDet: ms(10), StageTra: ms(5), StageLoc: ms(8), StageFusion: ms(1),
			StageMisplan: ms(0.5), StageMotplan: ms(2), StageControl: ms(1),
		}, ms(19)},
		{"LOC dominates", [NumStages]time.Duration{
			StageDet: ms(3), StageTra: ms(2), StageLoc: ms(20), StageFusion: ms(1),
			StageMisplan: ms(0.5), StageMotplan: ms(2), StageControl: ms(1),
		}, ms(24)},
		{"MISPLAN dominates", [NumStages]time.Duration{
			StageDet: ms(3), StageTra: ms(2), StageLoc: ms(4), StageFusion: ms(1),
			StageMisplan: ms(10), StageMotplan: ms(2), StageControl: ms(1),
		}, ms(17)},
		{"SRC precedes every path", [NumStages]time.Duration{
			StageSrc: ms(5), StageDet: ms(10), StageTra: ms(5), StageLoc: ms(8),
			StageFusion: ms(1), StageMotplan: ms(2), StageControl: ms(1),
		}, ms(24)},
	} {
		if got := CriticalPath(c.d); got != c.want {
			t.Errorf("%s: CriticalPath = %v, want %v", c.name, got, c.want)
		}
	}
	// The float64 instantiation Simulate uses: MISPLAN, SRC and CONTROL
	// unmodeled, so E2E = max(DET+TRA, LOC) + FUSION + MOTPLAN.
	f := [NumStages]float64{StageDet: 11.2, StageTra: 1.8, StageLoc: 10.1, StageFusion: 0.1, StageMotplan: 0.5}
	if got, want := CriticalPath(f), max(f[StageDet]+f[StageTra], f[StageLoc])+f[StageFusion]+f[StageMotplan]; got != want {
		t.Errorf("float64 CriticalPath = %v, want %v", got, want)
	}
	var sink time.Duration
	if a := testing.AllocsPerRun(100, func() { sink += CriticalPath([NumStages]time.Duration{StageDet: sink}) }); a != 0 {
		t.Errorf("CriticalPath allocates %v times per call", a)
	}

	p, err := NewNative(fastNativeConfig(scene.Highway))
	if err != nil {
		t.Fatal(err)
	}
	p.AttachMission(straightMission(t))
	res, err := p.Step()
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timing
	if want := CriticalPath([NumStages]time.Duration{
		StageDet: tm.Det, StageLoc: tm.Loc, StageTra: tm.Tra, StageFusion: tm.Fusion,
		StageMisplan: tm.MisPlan, StageMotplan: tm.MotPlan, StageControl: tm.Control,
	}); tm.E2E != want || want <= 0 {
		t.Errorf("Step E2E = %v, want CriticalPath of its Timing %v", tm.E2E, want)
	}
}

// straightMission plans a straight route along the scenario's road (nodes
// every 100 m in Z, local-class legs).
func straightMission(t *testing.T) *mission.Planner {
	t.Helper()
	g := mission.NewGraph()
	for i := 0; i < 5; i++ {
		g.AddNode(mission.Node{ID: mission.NodeID(i), X: 0, Z: float64(i) * 100})
	}
	for i := 0; i < 4; i++ {
		if err := g.AddBidirectional(mission.Edge{
			From: mission.NodeID(i), To: mission.NodeID(i + 1), Class: mission.Local,
		}); err != nil {
			t.Fatal(err)
		}
	}
	mp, err := mission.NewPlanner(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Start(0, 4); err != nil {
		t.Fatal(err)
	}
	return mp
}

func TestNativeWithMission(t *testing.T) {
	cfg := fastNativeConfig(scene.Urban)
	p, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachMission(straightMission(t))

	res, err := p.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Guidance.SpeedLimit != mission.Local.SpeedLimit() {
		t.Errorf("guidance speed limit = %v", res.Guidance.SpeedLimit)
	}
	// The local speed limit (8.3) must cap the plan's speed (ego 13 m/s).
	if res.Plan.Speed > mission.Local.SpeedLimit()+1e-9 {
		t.Errorf("plan speed %v exceeds guidance limit", res.Plan.Speed)
	}
}

// TestDeliveredFrameIsComplete guards the single result assembler
// (Pipeline.deliver): a clean, mission-attached, DNN-on frame must come out
// of BOTH executors with every output field and every StageTiming field
// filled. The parity tests cannot see a forgotten field — Step and Runner
// share the assembler and would forget it together.
func TestDeliveredFrameIsComplete(t *testing.T) {
	const frames = 4 // TraDNN needs a populated track table
	cfg := fastNativeConfig(scene.Urban)
	cfg.Detect.RunDNN = true
	cfg.Track.RunDNN = true
	last := map[string]FrameResult{}
	seq, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq.AttachMission(straightMission(t))
	for i := 0; i < frames; i++ {
		if last["step"], err = seq.Step(); err != nil {
			t.Fatal(err)
		}
	}
	pipe, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pipe.AttachMission(straightMission(t))
	r, err := NewRunner(pipe, RunnerOptions{InFlight: 3})
	if err != nil {
		t.Fatal(err)
	}
	for res := range r.Run(frames) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		last["runner"] = res.FrameResult
	}
	for name, res := range last {
		if res.Degraded.Any() {
			t.Errorf("%s: clean frame delivered degraded: %v", name, res.Degraded)
		}
		for _, v := range []reflect.Value{reflect.ValueOf(res), reflect.ValueOf(res.Timing)} {
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.Name != "Degraded" && v.Field(i).IsZero() {
					t.Errorf("%s: %s.%s delivered zero", name, v.Type().Name(), f.Name)
				}
			}
		}
	}
}

func TestNativeBreakdownInstrumentation(t *testing.T) {
	cfg := fastNativeConfig(scene.Urban)
	cfg.Detect.RunDNN = true
	cfg.Track.RunDNN = true
	p, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Step()
	res, err := p.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.DetDNN <= 0 || res.Timing.LocFE <= 0 {
		t.Error("breakdown instrumentation missing")
	}
	if res.Timing.DetDNN > res.Timing.Det {
		t.Error("DET DNN time exceeds DET total")
	}
	if res.Timing.LocFE > res.Timing.Loc {
		t.Error("LOC FE time exceeds LOC total")
	}
}

func TestAssignmentHelpers(t *testing.T) {
	a := Uniform(accel.GPU)
	if a.Det != accel.GPU || a.Tra != accel.GPU || a.Loc != accel.GPU {
		t.Error("Uniform wrong")
	}
	if a.Short() != "GPU/GPU/GPU" {
		t.Errorf("Short = %q", a.Short())
	}
	m := accel.NewModel()
	want := m.Power(accel.GPU, accel.DET) + m.Power(accel.GPU, accel.TRA) + m.Power(accel.GPU, accel.LOC)
	if a.ComputePowerW(m) != want {
		t.Error("ComputePowerW wrong")
	}
}

func TestSimulateValidation(t *testing.T) {
	m := accel.NewModel()
	if _, err := Simulate(m, SimConfig{Frames: 0}); err == nil {
		t.Error("zero frames accepted")
	}
}

func TestSimulateCPUMatchesPaperE2E(t *testing.T) {
	m := accel.NewModel()
	res, err := Simulate(m, SimConfig{
		Assignment: Uniform(accel.CPU), Frames: 40000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig 11: CPU-only end-to-end mean ≈ 7.9 s, tail ≈ 9.1 s.
	if mean := res.E2E.Mean(); math.Abs(mean-7950) > 250 {
		t.Errorf("CPU e2e mean = %.0f ms, want ~7950", mean)
	}
	if tail := res.E2E.P9999(); math.Abs(tail-9100) > 450 {
		t.Errorf("CPU e2e tail = %.0f ms, want ~9100", tail)
	}
}

func TestSimulateBestConfigMatches16ms(t *testing.T) {
	// Paper: acceleration reduces the end-to-end tail to 16.1 ms
	// (DET on GPU, TRA and LOC on ASIC).
	m := accel.NewModel()
	res, err := Simulate(m, SimConfig{
		Assignment: Assignment{Det: accel.GPU, Tra: accel.ASIC, Loc: accel.ASIC},
		Frames:     40000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tail := res.E2E.P9999()
	if math.Abs(tail-16.1) > 1.5 {
		t.Errorf("best-config tail = %.1f ms, paper says 16.1", tail)
	}
}

func TestSimulateHeadlineReductions(t *testing.T) {
	m := accel.NewModel()
	tail := func(p accel.Platform) float64 {
		res, err := Simulate(m, SimConfig{Assignment: Uniform(p), Frames: 40000, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res.E2E.P9999()
	}
	base := tail(accel.CPU)
	for _, c := range []struct {
		p    accel.Platform
		want float64
		tol  float64
	}{{accel.GPU, 169, 20}, {accel.FPGA, 10, 1}, {accel.ASIC, 93, 8}} {
		got := base / tail(c.p)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%v e2e tail reduction = %.1fx, paper %.0fx", c.p, got, c.want)
		}
	}
}

func TestSimulateResolutionDefaults(t *testing.T) {
	m := accel.NewModel()
	res, err := Simulate(m, SimConfig{Assignment: Uniform(accel.ASIC), Frames: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Res != accel.ResKITTI {
		t.Error("resolution should default to the KITTI base")
	}
}

// TestSimulateE2EGolden pins Simulate's composed E2E distribution bitwise:
// the mean, P99.99 and max of 4 000 frames at seed 1, for each uniform
// assignment, the paper's best mixed one, and that one with independent
// noise. The literals are %v-printed float64s, which round-trip exactly.
func TestSimulateE2EGolden(t *testing.T) {
	best := Assignment{Det: accel.GPU, Tra: accel.ASIC, Loc: accel.ASIC}
	for _, c := range []struct {
		name            string
		cfg             SimConfig
		mean, p9999, mx float64
	}{
		{"CPU", SimConfig{Assignment: Uniform(accel.CPU)}, 7959.516255616276, 9070.679169609335, 9096.890206494012},
		{"GPU", SimConfig{Assignment: Uniform(accel.GPU)}, 20.947617383633357, 54.651934937617156, 54.66239689094228},
		{"FPGA", SimConfig{Assignment: Uniform(accel.FPGA)}, 906.2012457122382, 906.4137621019081, 906.4186456520699},
		{"ASIC", SimConfig{Assignment: Uniform(accel.ASIC)}, 98.30124571223826, 98.51376210190804, 98.51864565206984},
		{"GPU/ASIC/ASIC", SimConfig{Assignment: best}, 13.614816958250213, 16.766621461004284, 17.031457466408888},
		{"GPU/ASIC/ASIC independent", SimConfig{Assignment: best, IndependentNoise: true}, 13.60397794563427, 16.967101444129575, 17.334246049819175},
	} {
		c.cfg.Frames, c.cfg.Seed = 4000, 1
		res, err := Simulate(accel.NewModel(), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := res.E2E
		if e.Mean() != c.mean || e.P9999() != c.p9999 || e.Max() != c.mx {
			t.Errorf("%s: E2E mean/P99.99/max = %v/%v/%v, want %v/%v/%v",
				c.name, e.Mean(), e.P9999(), e.Max(), c.mean, c.p9999, c.mx)
		}
	}
}

func BenchmarkNativeStep(b *testing.B) {
	p, err := NewNative(fastNativeConfig(scene.Highway))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulate1kFrames(b *testing.B) {
	m := accel.NewModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(m, SimConfig{
			Assignment: Uniform(accel.ASIC), Frames: 1000, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNativeControlCommand(t *testing.T) {
	p, err := NewNative(fastNativeConfig(scene.Highway))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Control <= 0 {
		t.Error("control stage not timed")
	}
	cfg := control.DefaultConfig()
	if math.Abs(res.Command.Curvature) > cfg.MaxCurvature {
		t.Errorf("command curvature %v exceeds limit", res.Command.Curvature)
	}
	if res.Command.Accel > cfg.MaxAccel || res.Command.Accel < -cfg.MaxBrake {
		t.Errorf("command accel %v out of limits", res.Command.Accel)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	p, err := NewNative(fastNativeConfig(scene.Urban))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	var want []TraceRecord
	for i := 0; i < 5; i++ {
		res, err := p.Step()
		if err != nil {
			t.Fatal(err)
		}
		rec := NewTraceRecord(res)
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	if w.Count() != 5 {
		t.Errorf("count = %d", w.Count())
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round trip %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, got[i], want[i])
		}
	}
	// Sanity on content.
	if got[0].Frame != 0 || got[4].Frame != 4 {
		t.Error("frame indices wrong")
	}
	if got[0].E2EMs <= 0 {
		t.Error("missing latency")
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{not json")); err == nil {
		t.Error("garbage trace accepted")
	}
}

func TestStopLineRampsSpeedDown(t *testing.T) {
	cfg := fastNativeConfig(scene.Urban)
	cfg.Scene.NumVehicles, cfg.Scene.NumPeds, cfg.Scene.NumSigns = 0, 0, 0
	cfg.SurveyFrames = 90 // survey the full 90 m route (the paper's premise)
	p, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Route with a stop line at the end of the first 100 m leg.
	g := mission.NewGraph()
	for i := 0; i < 3; i++ {
		g.AddNode(mission.Node{ID: mission.NodeID(i), X: 0, Z: float64(i) * 100})
	}
	for i := 0; i < 2; i++ {
		if err := g.AddEdge(mission.Edge{
			From: mission.NodeID(i), To: mission.NodeID(i + 1),
			Class: mission.Arterial, StopAtEnd: i == 0,
		}); err != nil {
			t.Fatal(err)
		}
	}
	mp, _ := mission.NewPlanner(g)
	if err := mp.Start(0, 2); err != nil {
		t.Fatal(err)
	}
	p.AttachMission(mp)

	var farSpeed, nearSpeed float64
	for i := 0; i < 70; i++ { // urban ego: 1.3 m/frame → 91 m
		res, err := p.Step()
		if err != nil {
			t.Fatal(err)
		}
		z := res.Pose.Pose.Z
		if z > 40 && z < 60 && farSpeed == 0 {
			farSpeed = res.Plan.Speed // outside the 30 m approach zone
		}
		if z > 85 && z < 95 {
			nearSpeed = res.Plan.Speed // deep inside the approach zone
		}
	}
	if farSpeed == 0 || nearSpeed == 0 {
		t.Fatal("route positions not sampled; localization drifted?")
	}
	if nearSpeed >= farSpeed*0.7 {
		t.Errorf("approach speed %.1f not ramped down from %.1f before the stop line",
			nearSpeed, farSpeed)
	}
}
