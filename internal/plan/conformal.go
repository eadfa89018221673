package plan

import (
	"fmt"
	"math"
)

// Decision summarizes the maneuver a structured-road plan encodes; the
// vehicle-control engine consumes the waypoints, operators and logs consume
// this label.
type Decision int

const (
	// KeepLane follows the current lateral offset.
	KeepLane Decision = iota
	// NudgeLeft / NudgeRight shift laterally (lane change or in-lane bias).
	NudgeLeft
	NudgeRight
	// Brake holds the lane while reducing speed for a blocking obstacle.
	Brake
	// EmergencyStop means no collision-free trajectory was found.
	EmergencyStop
)

func (d Decision) String() string {
	switch d {
	case KeepLane:
		return "keep-lane"
	case NudgeLeft:
		return "nudge-left"
	case NudgeRight:
		return "nudge-right"
	case Brake:
		return "brake"
	default:
		return "emergency-stop"
	}
}

// ConformalConfig parameterizes the structured-road planner: a conformal
// spatiotemporal lattice laid along the lane centerline.
type ConformalConfig struct {
	// Stations is the number of longitudinal samples ahead.
	Stations int
	// StationStep is the spacing between stations (m).
	StationStep float64
	// LateralOffsets are the candidate offsets from the centerline (m),
	// symmetric around 0 and ordered left(-) to right(+).
	LateralOffsets []float64
	// TargetSpeed is the cruise speed (m/s).
	TargetSpeed float64
	// SafetyMargin is the required clearance to obstacle centers (m).
	SafetyMargin float64
	// WeightLateral penalizes distance from the centerline.
	WeightLateral float64
	// WeightSteer penalizes lateral movement between stations.
	WeightSteer float64
	// WeightObstacle scales soft obstacle-proximity cost.
	WeightObstacle float64
	// FollowGap is the longitudinal gap (m) under which the planner
	// decides to brake behind a same-corridor obstacle.
	FollowGap float64
}

// DefaultConformalConfig returns the standard configuration: 30 stations at
// 1.5 m with 7 lateral offsets spanning one lane to each side.
func DefaultConformalConfig() ConformalConfig {
	return ConformalConfig{
		Stations:       30,
		StationStep:    1.5,
		LateralOffsets: []float64{-3.5, -2.3, -1.2, 0, 1.2, 2.3, 3.5},
		TargetSpeed:    13,
		SafetyMargin:   1.6,
		WeightLateral:  1.0,
		WeightSteer:    2.0,
		WeightObstacle: 4.0,
		FollowGap:      12,
	}
}

func (c *ConformalConfig) validate() error {
	if c.Stations < 2 {
		return fmt.Errorf("plan: Stations %d < 2", c.Stations)
	}
	if c.StationStep <= 0 {
		return fmt.Errorf("plan: StationStep %v <= 0", c.StationStep)
	}
	if len(c.LateralOffsets) == 0 {
		return fmt.Errorf("plan: no lateral offsets")
	}
	if c.TargetSpeed <= 0 {
		return fmt.Errorf("plan: TargetSpeed %v <= 0", c.TargetSpeed)
	}
	return nil
}

// ConformalResult is a structured-road plan.
type ConformalResult struct {
	Path     Path
	Decision Decision
	// Speed is the commanded speed for the first segment (m/s).
	Speed float64
}

// PlanConformal builds and searches the conformal spatiotemporal lattice.
// The centerline runs straight ahead from the ego pose (egoX, egoZ) in +Z —
// lane-frame planning; callers with curved roads pass obstacle positions
// already projected into this lane frame. Obstacles are extrapolated with
// their constant-velocity estimates to each station's arrival time, which
// is the "spatiotemporal" part of the lattice.
func PlanConformal(cfg ConformalConfig, egoX, egoZ float64, obstacles []Obstacle) (ConformalResult, error) {
	if err := cfg.validate(); err != nil {
		return ConformalResult{}, err
	}
	nL := len(cfg.LateralOffsets)
	nS := cfg.Stations

	// nodeCost, dp and from are nS×nL matrices stored row-major in one
	// array each: (station i, offset j) is element i·nL + j.
	// nodeCost: obstacle cost of the node; +Inf blocked.
	nodeCost := make([]float64, nS*nL)
	for i := range nS {
		arrival := float64(i+1) * cfg.StationStep / cfg.TargetSpeed // time to reach station i
		sz := egoZ + float64(i+1)*cfg.StationStep
		for j, off := range cfg.LateralOffsets {
			sx := egoX + off
			var cost float64
			for _, o := range obstacles {
				ox, oz := o.At(arrival)
				d := math.Hypot(ox-sx, oz-sz)
				clearance := cfg.SafetyMargin + o.Radius
				switch {
				case d <= clearance:
					cost = math.Inf(1)
				case d <= 2*clearance:
					cost += cfg.WeightObstacle * (1 - (d-clearance)/clearance)
				}
				if math.IsInf(cost, 1) {
					break
				}
			}
			nodeCost[i*nL+j] = cost
		}
	}

	// DP over the station DAG: dp is the min cost to reach a node, from the
	// previous station's offset on that cheapest path; lateral moves are
	// limited to adjacent offsets per station step.
	const inf = math.MaxFloat64
	dp := make([]float64, nS*nL)
	from := make([]int, nS*nL)
	for k := range dp {
		dp[k] = inf
		from[k] = -1
	}
	// Ego starts at the offset nearest 0 (its own lane position).
	startJ := nearestOffset(cfg.LateralOffsets, 0)
	for j := range nL {
		if math.IsInf(nodeCost[j], 1) {
			continue
		}
		steer := math.Abs(cfg.LateralOffsets[j] - cfg.LateralOffsets[startJ])
		if steer > 1.5*offsetPitch(cfg.LateralOffsets) {
			continue // can't jump multiple offsets in one step
		}
		dp[j] = cfg.WeightLateral*math.Abs(cfg.LateralOffsets[j]) +
			cfg.WeightSteer*steer + nodeCost[j]
		from[j] = startJ
	}
	for i := 1; i < nS; i++ {
		prev := dp[(i-1)*nL : i*nL]
		for j := 0; j < nL; j++ {
			k := i*nL + j
			if math.IsInf(nodeCost[k], 1) {
				continue
			}
			base := cfg.WeightLateral*math.Abs(cfg.LateralOffsets[j]) + nodeCost[k]
			for _, pj := range []int{j - 1, j, j + 1} {
				if pj < 0 || pj >= nL || prev[pj] == inf {
					continue
				}
				steer := math.Abs(cfg.LateralOffsets[j] - cfg.LateralOffsets[pj])
				cand := prev[pj] + base + cfg.WeightSteer*steer
				if cand < dp[k] {
					dp[k] = cand
					from[k] = pj
				}
			}
		}
	}

	// Best terminal node; fall back to the deepest reachable station when
	// the full horizon is blocked.
	lastStation := nS - 1
	bestJ := -1
	for lastStation >= 0 {
		bestCost := inf
		for j, c := range dp[lastStation*nL : (lastStation+1)*nL] {
			if c < bestCost {
				bestCost = c
				bestJ = j
			}
		}
		if bestJ >= 0 && bestCost < inf {
			break
		}
		lastStation--
	}
	if lastStation < 0 {
		return ConformalResult{Decision: EmergencyStop}, nil
	}

	// Reconstruct offsets per station.
	offs := make([]int, lastStation+1)
	j := bestJ
	for i := lastStation; i >= 0; i-- {
		offs[i] = j
		j = from[i*nL+j]
	}

	res := ConformalResult{Decision: KeepLane, Speed: cfg.TargetSpeed}
	res.Path.Waypoints = make([]Waypoint, lastStation+1)
	for i := 0; i <= lastStation; i++ {
		res.Path.Waypoints[i] = Waypoint{
			X:     egoX + cfg.LateralOffsets[offs[i]],
			Z:     egoZ + float64(i+1)*cfg.StationStep,
			Speed: cfg.TargetSpeed,
		}
	}
	res.Path.Cost = dp[lastStation*nL+bestJ]
	// Headings from consecutive waypoints.
	for i := 0; i < len(res.Path.Waypoints); i++ {
		var a, b Waypoint
		switch {
		case i == 0:
			a = Waypoint{X: egoX, Z: egoZ}
			b = res.Path.Waypoints[0]
		default:
			a, b = res.Path.Waypoints[i-1], res.Path.Waypoints[i]
		}
		res.Path.Waypoints[i].Theta = math.Atan2(b.X-a.X, b.Z-a.Z)
	}

	// Decision labeling + speed control: classify by the path's largest
	// lateral deviation from the starting offset.
	startOff := cfg.LateralOffsets[startJ]
	maxDev := 0.0
	for _, oj := range offs {
		if dev := cfg.LateralOffsets[oj] - startOff; math.Abs(dev) > math.Abs(maxDev) {
			maxDev = dev
		}
	}
	switch {
	case maxDev < -0.5:
		res.Decision = NudgeLeft
	case maxDev > 0.5:
		res.Decision = NudgeRight
	}
	// Brake when a slower obstacle occupies our corridor within FollowGap.
	if res.Decision == KeepLane {
		for _, o := range obstacles {
			ahead := o.Z - egoZ
			if ahead > 0 && ahead < cfg.FollowGap &&
				math.Abs(o.X-egoX) < cfg.SafetyMargin+o.Radius {
				res.Decision = Brake
				res.Speed = cfg.TargetSpeed * math.Max(0.2, ahead/cfg.FollowGap)
				for i := range res.Path.Waypoints {
					res.Path.Waypoints[i].Speed = res.Speed
				}
				break
			}
		}
	}
	// Truncated horizons (full blockage downstream) also slow the vehicle.
	if lastStation < nS-1 && res.Decision != Brake {
		res.Decision = Brake
		res.Speed = cfg.TargetSpeed * float64(lastStation+1) / float64(nS)
		for i := range res.Path.Waypoints {
			res.Path.Waypoints[i].Speed = res.Speed
		}
	}
	return res, nil
}

func nearestOffset(offsets []float64, v float64) int {
	best, bestD := 0, math.Inf(1)
	for i, o := range offsets {
		d := math.Abs(o - v)
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func offsetPitch(offsets []float64) float64 {
	if len(offsets) < 2 {
		return 1
	}
	pitch := math.Inf(1)
	for i := 1; i < len(offsets); i++ {
		if d := math.Abs(offsets[i] - offsets[i-1]); d < pitch {
			pitch = d
		}
	}
	return pitch
}
