package plan

import (
	"math"
	"testing"
	"testing/quick"
)

func TestObstacleExtrapolation(t *testing.T) {
	o := Obstacle{X: 1, Z: 2, VX: 0.5, VZ: -1}
	x, z := o.At(2)
	if x != 2 || z != 0 {
		t.Errorf("At(2) = (%v,%v), want (2,0)", x, z)
	}
}

func TestConformalValidation(t *testing.T) {
	bad := DefaultConformalConfig()
	bad.Stations = 1
	if _, err := PlanConformal(bad, 0, 0, nil); err == nil {
		t.Error("1 station accepted")
	}
	bad2 := DefaultConformalConfig()
	bad2.LateralOffsets = nil
	if _, err := PlanConformal(bad2, 0, 0, nil); err == nil {
		t.Error("no offsets accepted")
	}
	bad3 := DefaultConformalConfig()
	bad3.TargetSpeed = 0
	if _, err := PlanConformal(bad3, 0, 0, nil); err == nil {
		t.Error("zero speed accepted")
	}
}

func TestConformalKeepsLaneWhenClear(t *testing.T) {
	res, err := PlanConformal(DefaultConformalConfig(), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != KeepLane {
		t.Errorf("decision = %v, want keep-lane", res.Decision)
	}
	for _, wp := range res.Path.Waypoints {
		if wp.X != 0 {
			t.Fatalf("clear road should stay on centerline; waypoint X=%v", wp.X)
		}
	}
	if res.Speed != DefaultConformalConfig().TargetSpeed {
		t.Errorf("speed = %v, want target", res.Speed)
	}
}

func TestConformalNudgesAroundStaticObstacle(t *testing.T) {
	cfg := DefaultConformalConfig()
	// Static obstacle dead ahead in our corridor.
	obst := []Obstacle{{X: 0, Z: 18, Radius: 1}}
	res, err := PlanConformal(cfg, 0, 0, obst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != NudgeLeft && res.Decision != NudgeRight {
		t.Fatalf("decision = %v, want a nudge", res.Decision)
	}
	// The path must clear the obstacle.
	for _, wp := range res.Path.Waypoints {
		if math.Hypot(wp.X-obst[0].X, wp.Z-obst[0].Z) < cfg.SafetyMargin {
			t.Fatalf("waypoint (%v,%v) violates safety margin", wp.X, wp.Z)
		}
	}
}

func TestConformalAvoidsMovingObstacle(t *testing.T) {
	cfg := DefaultConformalConfig()
	// Obstacle crossing from the left, reaching our lane right when we
	// arrive at z≈20 (t≈1.5s at 13 m/s): x = -6 + 4*1.5 = 0.
	obst := []Obstacle{{X: -6, Z: 20, Radius: 1, VX: 4}}
	res, err := PlanConformal(cfg, 0, 0, obst)
	if err != nil {
		t.Fatal(err)
	}
	// The spatiotemporal planner must not occupy the collision point at
	// the collision time.
	for i, wp := range res.Path.Waypoints {
		tArr := float64(i+1) * cfg.StationStep / cfg.TargetSpeed
		ox, oz := obst[0].At(tArr)
		if math.Hypot(wp.X-ox, wp.Z-oz) < cfg.SafetyMargin {
			t.Fatalf("station %d collides with moving obstacle", i)
		}
	}
	_ = res
}

func TestConformalBrakesBehindSlowLead(t *testing.T) {
	cfg := DefaultConformalConfig()
	// Wall of obstacles across all offsets close ahead: no lateral escape.
	var obst []Obstacle
	for x := -4.5; x <= 4.5; x += 1.0 {
		obst = append(obst, Obstacle{X: x, Z: 9, Radius: 1, VZ: cfg.TargetSpeed})
	}
	// Moving at target speed: never collides spatially with later stations
	// (it outruns us), but sits within FollowGap at t=0.
	res, err := PlanConformal(cfg, 0, 0, obst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Brake {
		t.Errorf("decision = %v, want brake", res.Decision)
	}
	if res.Speed >= cfg.TargetSpeed {
		t.Errorf("brake speed %v not reduced", res.Speed)
	}
}

func TestConformalEmergencyStopWhenFullyBlocked(t *testing.T) {
	cfg := DefaultConformalConfig()
	// Static wall across every offset at the first station.
	var obst []Obstacle
	for x := -6.0; x <= 6.0; x += 0.8 {
		obst = append(obst, Obstacle{X: x, Z: cfg.StationStep, Radius: 1.5})
	}
	res, err := PlanConformal(cfg, 0, 0, obst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != EmergencyStop {
		t.Errorf("decision = %v, want emergency-stop", res.Decision)
	}
}

func TestConformalTruncatedHorizonSlows(t *testing.T) {
	cfg := DefaultConformalConfig()
	// Wall far downstream: reachable prefix exists, full horizon blocked.
	var obst []Obstacle
	for x := -6.0; x <= 6.0; x += 0.8 {
		obst = append(obst, Obstacle{X: x, Z: 30, Radius: 1.5})
	}
	res, err := PlanConformal(cfg, 0, 0, obst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Brake {
		t.Errorf("decision = %v, want brake (truncated horizon)", res.Decision)
	}
	if res.Speed >= cfg.TargetSpeed {
		t.Error("truncated horizon should reduce speed")
	}
	if len(res.Path.Waypoints) >= cfg.Stations {
		t.Error("blocked horizon should truncate the path")
	}
}

func TestConformalHeadingsConsistent(t *testing.T) {
	res, err := PlanConformal(DefaultConformalConfig(), 0, 0, []Obstacle{{X: 0, Z: 18, Radius: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Path.Waypoints); i++ {
		a, b := res.Path.Waypoints[i-1], res.Path.Waypoints[i]
		want := math.Atan2(b.X-a.X, b.Z-a.Z)
		if math.Abs(b.Theta-want) > 1e-9 {
			t.Fatalf("waypoint %d heading %.3f, want %.3f", i, b.Theta, want)
		}
	}
}

// Property: with random non-blocking obstacles the planner always returns a
// safe path or an explicit stop — never a waypoint violating the margin at
// its arrival time.
func TestConformalSafetyProperty(t *testing.T) {
	cfg := DefaultConformalConfig()
	f := func(xs, zs [4]uint8) bool {
		var obst []Obstacle
		for i := 0; i < 4; i++ {
			obst = append(obst, Obstacle{
				X:      float64(xs[i]%16) - 8,
				Z:      float64(zs[i]%40) + 3,
				Radius: 1,
			})
		}
		res, err := PlanConformal(cfg, 0, 0, obst)
		if err != nil {
			return false
		}
		if res.Decision == EmergencyStop {
			return true
		}
		for i, wp := range res.Path.Waypoints {
			tArr := float64(i+1) * cfg.StationStep / cfg.TargetSpeed
			for _, o := range obst {
				ox, oz := o.At(tArr)
				if math.Hypot(wp.X-ox, wp.Z-oz) < cfg.SafetyMargin+o.Radius-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecisionString(t *testing.T) {
	for d, want := range map[Decision]string{
		KeepLane: "keep-lane", NudgeLeft: "nudge-left", NudgeRight: "nudge-right",
		Brake: "brake", EmergencyStop: "emergency-stop",
	} {
		if d.String() != want {
			t.Errorf("%d.String() = %q", d, d.String())
		}
	}
}

func TestPathLength(t *testing.T) {
	p := Path{Waypoints: []Waypoint{{X: 0, Z: 0}, {X: 3, Z: 4}, {X: 3, Z: 9}}}
	if p.Length() != 10 {
		t.Errorf("length = %v, want 10", p.Length())
	}
	if (Path{}).Length() != 0 {
		t.Error("empty path length should be 0")
	}
}

func BenchmarkPlanConformal(b *testing.B) {
	cfg := DefaultConformalConfig()
	obst := []Obstacle{{X: 0, Z: 18, Radius: 1}, {X: -2, Z: 30, Radius: 1, VZ: 5}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanConformal(cfg, 0, 0, obst); err != nil {
			b.Fatal(err)
		}
	}
}

// Alloc gate (run by `make alloc-gate`): a conformal plan allocates a
// fixed number of slices — its matrices are one array each, not one row
// per station — so a longer horizon costs no more allocations.
func TestAllocPlanConformal(t *testing.T) {
	obst := []Obstacle{{X: 0, Z: 18, Radius: 1}, {X: -2, Z: 30, Radius: 1, VZ: 5}}
	allocs := func(stations int) float64 {
		cfg := DefaultConformalConfig()
		cfg.Stations = stations
		return testing.AllocsPerRun(20, func() {
			if _, err := PlanConformal(cfg, 0, 0, obst); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(30), allocs(60)
	if short != long || long > 10 {
		t.Errorf("PlanConformal allocates %.0f at 30 stations and %.0f at 60, want the same count and <= 10", short, long)
	}
}
