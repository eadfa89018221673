// Package mission implements the mission-planning engine (MISPLAN) of the
// pipeline: rule-based route planning over a road graph, as the paper
// adopts from Autoware and attributes to Mobileye's rule-based policy.
//
// Per the paper's Figure 1, the mission planner determines the routing path
// from source to destination (like a navigation service would), is executed
// once up front, and is re-invoked only when the vehicle deviates from the
// planned route. The rule engine applies traffic rules (speed limits, stop
// requirements) per road segment for the motion planner to honor.
package mission

import (
	"container/heap"
	"fmt"
	"math"
)

// NodeID identifies a road-graph node (an intersection or waypoint).
type NodeID int

// Node is a road-graph vertex positioned in the world frame.
type Node struct {
	ID   NodeID
	X, Z float64
}

// RoadClass carries the per-segment traffic rules the rule engine applies.
type RoadClass int

const (
	// Local roads: low speed, stop lines at intersections.
	Local RoadClass = iota
	// Arterial roads: medium speed.
	Arterial
	// HighwayRoad: high speed, no stops.
	HighwayRoad
)

func (r RoadClass) String() string {
	switch r {
	case Local:
		return "local"
	case Arterial:
		return "arterial"
	default:
		return "highway"
	}
}

// SpeedLimit returns the class speed limit (m/s).
func (r RoadClass) SpeedLimit() float64 {
	switch r {
	case Local:
		return 8.3 // 30 km/h
	case Arterial:
		return 13.9 // 50 km/h
	default:
		return 27.8 // 100 km/h
	}
}

// Edge is a directed road segment.
type Edge struct {
	From, To NodeID
	Class    RoadClass
	// StopAtEnd marks a stop line (sign or signal) at the destination
	// node that the rule engine will surface.
	StopAtEnd bool
}

// Graph is a directed road graph.
type Graph struct {
	nodes map[NodeID]Node
	adj   map[NodeID][]Edge
}

// NewGraph returns an empty road graph.
func NewGraph() *Graph {
	return &Graph{nodes: make(map[NodeID]Node), adj: make(map[NodeID][]Edge)}
}

// AddNode inserts (or replaces) a node.
func (g *Graph) AddNode(n Node) { g.nodes[n.ID] = n }

// AddEdge inserts a directed edge; both endpoints must exist.
func (g *Graph) AddEdge(e Edge) error {
	if _, ok := g.nodes[e.From]; !ok {
		return fmt.Errorf("mission: edge from unknown node %d", e.From)
	}
	if _, ok := g.nodes[e.To]; !ok {
		return fmt.Errorf("mission: edge to unknown node %d", e.To)
	}
	g.adj[e.From] = append(g.adj[e.From], e)
	return nil
}

// AddBidirectional inserts the edge in both directions.
func (g *Graph) AddBidirectional(e Edge) error {
	if err := g.AddEdge(e); err != nil {
		return err
	}
	rev := e
	rev.From, rev.To = e.To, e.From
	return g.AddEdge(rev)
}

// Node returns a node by ID.
func (g *Graph) Node(id NodeID) (Node, bool) {
	n, ok := g.nodes[id]
	return n, ok
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// edgeLength returns the Euclidean length of e (m).
func (g *Graph) edgeLength(e Edge) float64 {
	a, b := g.nodes[e.From], g.nodes[e.To]
	return math.Hypot(b.X-a.X, b.Z-a.Z)
}

// RouteStep is one leg of a planned route.
type RouteStep struct {
	Edge   Edge
	Length float64 // m
	// SpeedLimit from the rule engine (m/s).
	SpeedLimit float64
	// StopAtEnd propagated from the edge's rules.
	StopAtEnd bool
}

// Route is a mission plan from source to destination.
type Route struct {
	Steps []RouteStep
	Nodes []NodeID // visited nodes, source first
	// TravelTime is the rule-respecting ETA (s).
	TravelTime float64
	// Length is the total distance (m).
	Length float64
}

// Empty reports whether the route has no legs (already at destination).
func (r Route) Empty() bool { return len(r.Steps) == 0 }

// pqItem is a priority-queue element for Dijkstra.
type pqItem struct {
	node NodeID
	cost float64
	idx  int
}

type pq []*pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].cost < p[j].cost }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i]; p[i].idx = i; p[j].idx = j }
func (p *pq) Push(x interface{}) { it := x.(*pqItem); it.idx = len(*p); *p = append(*p, it) }
func (p *pq) Pop() interface{} {
	old := *p
	it := old[len(old)-1]
	*p = old[:len(old)-1]
	return it
}

// PlanRoute computes the minimum-travel-time route from src to dst with
// Dijkstra's algorithm, where each edge costs length/speedLimit plus a stop
// penalty — so the router prefers faster road classes, as navigation
// services do.
func (g *Graph) PlanRoute(src, dst NodeID) (Route, error) {
	if _, ok := g.nodes[src]; !ok {
		return Route{}, fmt.Errorf("mission: unknown source node %d", src)
	}
	if _, ok := g.nodes[dst]; !ok {
		return Route{}, fmt.Errorf("mission: unknown destination node %d", dst)
	}
	if src == dst {
		return Route{Nodes: []NodeID{src}}, nil
	}
	const stopPenalty = 5.0 // seconds lost per stop line

	dist := map[NodeID]float64{src: 0}
	prevEdge := map[NodeID]Edge{}
	visited := map[NodeID]bool{}
	q := &pq{}
	heap.Init(q)
	heap.Push(q, &pqItem{node: src, cost: 0})

	for q.Len() > 0 {
		cur := heap.Pop(q).(*pqItem)
		if visited[cur.node] {
			continue
		}
		visited[cur.node] = true
		if cur.node == dst {
			break
		}
		for _, e := range g.adj[cur.node] {
			cost := cur.cost + g.edgeLength(e)/e.Class.SpeedLimit()
			if e.StopAtEnd {
				cost += stopPenalty
			}
			if old, seen := dist[e.To]; !seen || cost < old {
				dist[e.To] = cost
				prevEdge[e.To] = e
				heap.Push(q, &pqItem{node: e.To, cost: cost})
			}
		}
	}
	if !visited[dst] {
		return Route{}, fmt.Errorf("mission: no route from %d to %d", src, dst)
	}

	// Reconstruct.
	var steps []RouteStep
	nodes := []NodeID{dst}
	for at := dst; at != src; {
		e := prevEdge[at]
		steps = append(steps, RouteStep{
			Edge:       e,
			Length:     g.edgeLength(e),
			SpeedLimit: e.Class.SpeedLimit(),
			StopAtEnd:  e.StopAtEnd,
		})
		at = e.From
		nodes = append(nodes, at)
	}
	// Reverse into forward order.
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}

	r := Route{Steps: steps, Nodes: nodes, TravelTime: dist[dst]}
	for _, s := range steps {
		r.Length += s.Length
	}
	return r, nil
}
