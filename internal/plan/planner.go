// Package plan implements the motion-planning engine (MOTPLAN) of the
// pipeline: the conformal spatiotemporal lattice the paper adopts from
// Autoware for structured roads [McNaughton et al.], which adapts candidate
// trajectories to the lane geometry and to the predicted motion of tracked
// obstacles. Autoware's second planner, a graph-search state lattice for
// open areas such as parking lots, is not built: no synthetic scene has
// one (DESIGN.md §2).
package plan

import "math"

// Obstacle is one planning-relevant object in the world frame: position,
// physical radius and a constant-velocity motion estimate (from the fusion
// engine's tracked objects).
type Obstacle struct {
	X, Z   float64 // position (m)
	Radius float64 // inflation radius (m)
	VX, VZ float64 // velocity (m/s)
}

// At returns the obstacle center extrapolated t seconds ahead under the
// constant-velocity model.
func (o Obstacle) At(t float64) (x, z float64) {
	return o.X + o.VX*t, o.Z + o.VZ*t
}

// Waypoint is one pose sample along a planned path.
type Waypoint struct {
	X, Z  float64 // world position (m)
	Theta float64 // heading (rad, 0 = +Z)
	Speed float64 // commanded speed (m/s)
}

// Path is a planned trajectory.
type Path struct {
	Waypoints []Waypoint
	Cost      float64
}

// Length returns the arc length of the path (m).
func (p Path) Length() float64 {
	var total float64
	for i := 1; i < len(p.Waypoints); i++ {
		a, b := p.Waypoints[i-1], p.Waypoints[i]
		total += math.Hypot(b.X-a.X, b.Z-a.Z)
	}
	return total
}

// Planner is the MOTPLAN engine object: it owns a base ConformalConfig and
// plans one frame at a time, optionally under a per-frame target-speed
// override (how mission guidance — speed limits, stop-line ramps — shapes
// the motion plan without mutating the base configuration). Wrapping the
// free PlanConformal function in an engine gives MOTPLAN the same shape as
// the other engines, so the stage graph can treat all seven uniformly.
//
// Planner is stateless frame-to-frame and safe for sequential reuse.
type Planner struct {
	cfg ConformalConfig
}

// NewPlanner returns a MOTPLAN engine planning under cfg.
func NewPlanner(cfg ConformalConfig) *Planner { return &Planner{cfg: cfg} }

// StageName identifies the motion planner in the pipeline's declarative
// stage graph and in telemetry spans (implements telemetry.Stage).
func (p *Planner) StageName() string { return "MOTPLAN" }

// Config returns the base configuration.
func (p *Planner) Config() ConformalConfig { return p.cfg }

// Plan plans from ego position (x, z) against the fused obstacles.
// targetSpeed > 0 overrides the configured target speed for this frame
// only; <= 0 keeps the base target speed.
func (p *Planner) Plan(x, z float64, obstacles []Obstacle, targetSpeed float64) (ConformalResult, error) {
	cfg := p.cfg
	if targetSpeed > 0 {
		cfg.TargetSpeed = targetSpeed
	}
	return PlanConformal(cfg, x, z, obstacles)
}
