package mission

import (
	"math"
	"testing"
	"testing/quick"
)

func lineGraph(t *testing.T, n int, class RoadClass) *Graph {
	t.Helper()
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddNode(Node{ID: NodeID(i), X: 0, Z: float64(i) * 100})
	}
	for i := 0; i < n-1; i++ {
		if err := g.AddBidirectional(Edge{From: NodeID(i), To: NodeID(i + 1), Class: class}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestGraphValidation(t *testing.T) {
	g := NewGraph()
	g.AddNode(Node{ID: 1})
	if err := g.AddEdge(Edge{From: 1, To: 2}); err == nil {
		t.Error("edge to unknown node accepted")
	}
	if err := g.AddEdge(Edge{From: 2, To: 1}); err == nil {
		t.Error("edge from unknown node accepted")
	}
}

func TestRoadClassRules(t *testing.T) {
	if Local.SpeedLimit() >= Arterial.SpeedLimit() ||
		Arterial.SpeedLimit() >= HighwayRoad.SpeedLimit() {
		t.Error("speed limits not ordered by road class")
	}
	if Local.String() != "local" || HighwayRoad.String() != "highway" {
		t.Error("RoadClass strings wrong")
	}
}

func TestPlanRouteLine(t *testing.T) {
	g := lineGraph(t, 5, Arterial)
	r, err := g.PlanRoute(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Steps) != 4 {
		t.Fatalf("steps = %d, want 4", len(r.Steps))
	}
	if r.Length != 400 {
		t.Errorf("length = %v, want 400", r.Length)
	}
	wantTime := 400 / Arterial.SpeedLimit()
	if math.Abs(r.TravelTime-wantTime) > 1e-9 {
		t.Errorf("travel time = %v, want %v", r.TravelTime, wantTime)
	}
	if r.Nodes[0] != 0 || r.Nodes[len(r.Nodes)-1] != 4 {
		t.Errorf("nodes = %v", r.Nodes)
	}
}

func TestPlanRouteSameNode(t *testing.T) {
	g := lineGraph(t, 3, Local)
	r, err := g.PlanRoute(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Empty() {
		t.Error("same-node route should be empty")
	}
}

func TestPlanRouteUnknownNodes(t *testing.T) {
	g := lineGraph(t, 3, Local)
	if _, err := g.PlanRoute(99, 1); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := g.PlanRoute(0, 99); err == nil {
		t.Error("unknown destination accepted")
	}
}

func TestPlanRouteDisconnected(t *testing.T) {
	g := NewGraph()
	g.AddNode(Node{ID: 0})
	g.AddNode(Node{ID: 1, X: 100})
	if _, err := g.PlanRoute(0, 1); err == nil {
		t.Error("disconnected route should fail")
	}
}

func TestRouterPrefersFasterRoads(t *testing.T) {
	// Two routes 0→3: direct local (200m) vs detour highway (300m).
	// Highway at 27.8 m/s takes 10.8s; local at 8.3 m/s takes 24s.
	g := NewGraph()
	g.AddNode(Node{ID: 0, X: 0, Z: 0})
	g.AddNode(Node{ID: 1, X: 0, Z: 200})   // destination
	g.AddNode(Node{ID: 2, X: 100, Z: 100}) // highway midpoint
	if err := g.AddBidirectional(Edge{From: 0, To: 1, Class: Local}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddBidirectional(Edge{From: 0, To: 2, Class: HighwayRoad}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddBidirectional(Edge{From: 2, To: 1, Class: HighwayRoad}); err != nil {
		t.Fatal(err)
	}
	r, err := g.PlanRoute(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Steps) != 2 || r.Steps[0].Edge.To != 2 {
		t.Errorf("router chose %v, want the highway detour via node 2", r.Nodes)
	}
}

func TestStopPenaltyAvoidsStopLines(t *testing.T) {
	// Same geometry, same class, one path with a stop line.
	g := NewGraph()
	g.AddNode(Node{ID: 0, X: 0, Z: 0})
	g.AddNode(Node{ID: 1, X: -50, Z: 100})
	g.AddNode(Node{ID: 2, X: 50, Z: 100})
	g.AddNode(Node{ID: 3, X: 0, Z: 200})
	for _, e := range []Edge{
		{From: 0, To: 1, Class: Arterial, StopAtEnd: true},
		{From: 1, To: 3, Class: Arterial},
		{From: 0, To: 2, Class: Arterial},
		{From: 2, To: 3, Class: Arterial},
	} {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	r, err := g.PlanRoute(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes[1] != 2 {
		t.Errorf("router chose stop-line path: %v", r.Nodes)
	}
}

// Property: on a grid, routes between random nodes always exist and route
// length is at least the Manhattan-ish straight-line distance.
func TestGridRouteProperty(t *testing.T) {
	g, err := GridGraph(4, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		src := NodeID(int(a) % 25)
		dst := NodeID(int(b) % 25)
		r, err := g.PlanRoute(src, dst)
		if err != nil {
			return false
		}
		sn, _ := g.Node(src)
		dn, _ := g.Node(dst)
		crow := math.Hypot(dn.X-sn.X, dn.Z-sn.Z)
		return r.Length >= crow-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPlannerLifecycle(t *testing.T) {
	g := lineGraph(t, 4, Arterial) // nodes at z=0,100,200,300
	p, err := NewPlanner(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(0, 3); err != nil {
		t.Fatal(err)
	}
	// Drive along the route.
	guid, err := p.Update(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if guid.Arrived || guid.Replanned {
		t.Fatalf("unexpected guidance %+v", guid)
	}
	if guid.SpeedLimit != Arterial.SpeedLimit() {
		t.Errorf("speed limit = %v", guid.SpeedLimit)
	}
	if math.Abs(guid.DistanceToLegEnd-90) > 1e-9 {
		t.Errorf("leg distance = %v, want 90", guid.DistanceToLegEnd)
	}
	// Pass node 1: leg advances.
	guid, _ = p.Update(0, 99)
	if math.Abs(guid.DistanceToLegEnd-101) > 1e-9 {
		t.Errorf("after advance, leg distance = %v, want 101", guid.DistanceToLegEnd)
	}
	// Arrive.
	guid, _ = p.Update(0, 299)
	guid, _ = p.Update(0, 300)
	if !guid.Arrived {
		t.Error("not arrived at destination")
	}
}

func TestPlannerDeviationTriggersReplan(t *testing.T) {
	g, err := GridGraph(3, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewPlanner(g)
	if err := p.Start(0, 15); err != nil { // corner to corner
		t.Fatal(err)
	}
	// Teleport far off the first leg: must re-plan from the nearest node.
	guid, err := p.Update(250, 250)
	if err != nil {
		t.Fatal(err)
	}
	if !guid.Replanned {
		t.Fatal("deviation did not trigger re-plan")
	}
	if p.Replans() != 1 {
		t.Errorf("replans = %d, want 1", p.Replans())
	}
	// The new route must still lead to the destination.
	r := p.Route()
	if len(r.Nodes) == 0 || r.Nodes[len(r.Nodes)-1] != 15 {
		t.Errorf("re-planned route %v does not reach 15", r.Nodes)
	}
}

func TestPlannerOnRouteNoReplan(t *testing.T) {
	g := lineGraph(t, 4, Arterial)
	p, _ := NewPlanner(g)
	p.Start(0, 3)
	for z := 0.0; z <= 290; z += 10 {
		if guid, _ := p.Update(0, z); guid.Replanned {
			t.Fatalf("spurious re-plan at z=%v", z)
		}
	}
	if p.Replans() != 0 {
		t.Error("replans should be 0 on-route")
	}
}

func TestNewPlannerRejectsEmptyGraph(t *testing.T) {
	if _, err := NewPlanner(NewGraph()); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := NewPlanner(nil); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestGridGraphShape(t *testing.T) {
	g, err := GridGraph(2, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 12 {
		t.Errorf("nodes = %d, want 12", g.NumNodes())
	}
	if _, err := GridGraph(0, 3, 50); err == nil {
		t.Error("zero cols accepted")
	}
}

func TestDistToSegment(t *testing.T) {
	if d := distToSegment(0, 5, -10, 0, 10, 0); d != 5 {
		t.Errorf("perpendicular distance = %v, want 5", d)
	}
	if d := distToSegment(20, 0, -10, 0, 10, 0); d != 10 {
		t.Errorf("beyond-end distance = %v, want 10", d)
	}
	if d := distToSegment(3, 4, 0, 0, 0, 0); d != 5 {
		t.Errorf("degenerate segment distance = %v, want 5", d)
	}
}

// Property: guidance invariants hold for arbitrary positions — a
// non-negative speed limit and leg distance.
func TestGuidanceInvariantsProperty(t *testing.T) {
	p, _ := NewPlanner(lineGraph(t, 4, Local))
	if err := p.Start(0, 3); err != nil {
		t.Fatal(err)
	}
	f := func(x int8, z uint16) bool {
		guid, err := p.Update(float64(x)/30, float64(z%350))
		return err == nil && guid.SpeedLimit >= 0 && guid.DistanceToLegEnd >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
