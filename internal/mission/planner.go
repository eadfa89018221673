package mission

import (
	"fmt"
	"math"
)

// Planner is the mission-planning engine: it holds the active route,
// tracks progress against the vehicle's localized position, surfaces the
// current leg's traffic rules, and re-plans when the vehicle deviates from
// the route — matching the paper's "only invoked when the vehicle deviates
// from the original routing plan".
type Planner struct {
	g   *Graph
	dst NodeID

	route   Route
	leg     int // index of the active step in route.Steps
	replans int

	// DeviationLimit is the lateral distance (m) from the active leg
	// beyond which the planner declares a deviation and re-routes.
	DeviationLimit float64
}

// NewPlanner creates a mission planner over a road graph.
func NewPlanner(g *Graph) (*Planner, error) {
	if g == nil || g.NumNodes() == 0 {
		return nil, fmt.Errorf("mission: empty road graph")
	}
	return &Planner{g: g, DeviationLimit: 6.0}, nil
}

// Route returns the active route.
func (p *Planner) Route() Route { return p.route }

// Replans reports how many times the route was re-planned after deviations.
func (p *Planner) Replans() int { return p.replans }

// Start plans the initial route from src to dst. This is the single
// up-front MISPLAN invocation.
func (p *Planner) Start(src, dst NodeID) error {
	r, err := p.g.PlanRoute(src, dst)
	if err != nil {
		return err
	}
	p.route = r
	p.dst = dst
	p.leg = 0
	return nil
}

// Guidance is the mission planner's per-position output for the motion
// planner: current leg rules plus progress state.
type Guidance struct {
	// SpeedLimit for the active leg (m/s); 0 when the route is complete.
	SpeedLimit float64
	// StopAhead is true when the active leg has a stop line at its end.
	StopAhead bool
	// DistanceToLegEnd is the remaining length of the active leg (m).
	DistanceToLegEnd float64
	// Arrived is true once the final node is reached.
	Arrived bool
	// Replanned is true when this update triggered a deviation re-plan.
	Replanned bool
}

// Update advances route progress given the vehicle's localized position.
// It advances legs as their end nodes are passed, re-plans from the nearest
// node on deviation, and reports the active leg's rules.
func (p *Planner) Update(x, z float64) (Guidance, error) {
	if p.route.Empty() || p.leg >= len(p.route.Steps) {
		return Guidance{Arrived: true}, nil
	}

	step := p.route.Steps[p.leg]
	from, _ := p.g.Node(step.Edge.From)
	to, _ := p.g.Node(step.Edge.To)

	// Advance to the next leg once within arrival radius of the leg end.
	const arriveRadius = 3.0
	if math.Hypot(to.X-x, to.Z-z) <= arriveRadius {
		p.leg++
		if p.leg >= len(p.route.Steps) {
			return Guidance{Arrived: true}, nil
		}
		step = p.route.Steps[p.leg]
		from, _ = p.g.Node(step.Edge.From)
		to, _ = p.g.Node(step.Edge.To)
	}

	// Deviation check: lateral distance from the active leg segment.
	if distToSegment(x, z, from.X, from.Z, to.X, to.Z) > p.DeviationLimit {
		src := p.nearestNode(x, z)
		r, err := p.g.PlanRoute(src, p.dst)
		if err != nil {
			return Guidance{}, fmt.Errorf("mission: deviation re-plan failed: %w", err)
		}
		p.route = r
		p.leg = 0
		p.replans++
		if r.Empty() {
			return Guidance{Arrived: true, Replanned: true}, nil
		}
		step = r.Steps[0]
		to, _ = p.g.Node(step.Edge.To)
		guid := legGuidance(step, to, x, z)
		guid.Replanned = true
		return guid, nil
	}

	return legGuidance(step, to, x, z), nil
}

// legGuidance assembles the rule-engine output for the active leg.
func legGuidance(step RouteStep, to Node, x, z float64) Guidance {
	return Guidance{
		SpeedLimit:       step.SpeedLimit,
		StopAhead:        step.StopAtEnd,
		DistanceToLegEnd: math.Hypot(to.X-x, to.Z-z),
	}
}

// nearestNode returns the graph node closest to (x,z).
func (p *Planner) nearestNode(x, z float64) NodeID {
	var best NodeID
	bestD := math.Inf(1)
	for id, n := range p.g.nodes {
		d := math.Hypot(n.X-x, n.Z-z)
		if d < bestD {
			best, bestD = id, d
		}
	}
	return best
}

// distToSegment returns the distance from point (px,pz) to segment
// (ax,az)-(bx,bz).
func distToSegment(px, pz, ax, az, bx, bz float64) float64 {
	dx, dz := bx-ax, bz-az
	lenSq := float64(dx*dx) + float64(dz*dz)
	if lenSq == 0 {
		return math.Hypot(px-ax, pz-az)
	}
	t := (float64((px-ax)*dx) + float64((pz-az)*dz)) / lenSq
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return math.Hypot(px-(ax+float64(t*dx)), pz-(az+float64(t*dz)))
}

// GridGraph builds a rectangular road-grid test world: (cols+1)×(rows+1)
// intersections spaced pitch meters apart, connected bidirectionally.
// Horizontal streets are Local with stop lines; vertical avenues are
// Arterial. Node IDs are row*(cols+1)+col. Useful for examples and tests.
func GridGraph(cols, rows int, pitch float64) (*Graph, error) {
	if cols <= 0 || rows <= 0 || pitch <= 0 {
		return nil, fmt.Errorf("mission: invalid grid %dx%d pitch %v", cols, rows, pitch)
	}
	g := NewGraph()
	id := func(r, c int) NodeID { return NodeID(r*(cols+1) + c) }
	for r := 0; r <= rows; r++ {
		for c := 0; c <= cols; c++ {
			g.AddNode(Node{ID: id(r, c), X: float64(c) * pitch, Z: float64(r) * pitch})
		}
	}
	for r := 0; r <= rows; r++ {
		for c := 0; c < cols; c++ {
			if err := g.AddBidirectional(Edge{From: id(r, c), To: id(r, c+1), Class: Local, StopAtEnd: true}); err != nil {
				return nil, err
			}
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c <= cols; c++ {
			if err := g.AddBidirectional(Edge{From: id(r, c), To: id(r+1, c), Class: Arterial}); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}
