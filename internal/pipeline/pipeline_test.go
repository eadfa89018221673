package pipeline

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

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

func TestNativeE2ETimingLaw(t *testing.T) {
	p, err := NewNative(fastNativeConfig(scene.Highway))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Step()
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timing
	critical := tm.Det + tm.Tra
	if tm.Loc > critical {
		critical = tm.Loc
	}
	if tm.E2E != critical+tm.Fusion+tm.MotPlan+tm.Control {
		t.Error("E2E law violated")
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
