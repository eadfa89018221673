package dnn

import "fmt"

// Graph is a directed acyclic network supporting skip connections and
// channel concatenation — enough to express YOLOv2's passthrough (the
// 26×26×512 feature map reorganized and concatenated with the 13×13×1024
// head), which the feed-forward Network type cannot. It describes shapes
// and cost only: the platform models read its cost, and nothing executes
// it (the engines run a Network).
//
// Build with NewGraph/AddLayer/AddConcat; the last node added is the
// output. Node IDs are dense ints; InputID designates the graph input.
type Graph struct {
	Name  string
	Input Shape
	nodes []gnode
}

// InputID is the pseudo-node ID of the graph input.
const InputID = -1

type gnode struct {
	layer  Layer // nil for concat nodes
	inputs []int
}

// NewGraph starts a graph with the given input shape.
func NewGraph(name string, input Shape) *Graph {
	return &Graph{Name: name, Input: input}
}

// AddLayer appends a layer node reading from the node with ID from
// (InputID for the graph input) and returns the new node's ID.
func (g *Graph) AddLayer(l Layer, from int) int {
	g.nodes = append(g.nodes, gnode{layer: l, inputs: []int{from}})
	return len(g.nodes) - 1
}

// AddConcat appends a channel-concatenation node over the given nodes and
// returns its ID. All inputs must share spatial dimensions (validated by
// Check).
func (g *Graph) AddConcat(from ...int) int {
	g.nodes = append(g.nodes, gnode{inputs: append([]int(nil), from...)})
	return len(g.nodes) - 1
}

// shapeOf computes the output shape of node id (InputID = graph input).
func (g *Graph) shapeOf(id int, memo map[int]Shape) (Shape, error) {
	if id == InputID {
		return g.Input, nil
	}
	if id < 0 || id >= len(g.nodes) {
		return Shape{}, fmt.Errorf("dnn: graph %s references unknown node %d", g.Name, id)
	}
	if s, ok := memo[id]; ok {
		return s, nil
	}
	n := g.nodes[id]
	var out Shape
	if n.layer != nil {
		in, err := g.shapeOf(n.inputs[0], memo)
		if err != nil {
			return Shape{}, err
		}
		out = n.layer.OutShape(in)
		if out.C <= 0 || out.H <= 0 || out.W <= 0 {
			return Shape{}, fmt.Errorf("dnn: graph %s node %d (%s) produces invalid shape %v",
				g.Name, id, n.layer.Name(), out)
		}
	} else {
		if len(n.inputs) == 0 {
			return Shape{}, fmt.Errorf("dnn: graph %s node %d concat has no inputs", g.Name, id)
		}
		for i, from := range n.inputs {
			s, err := g.shapeOf(from, memo)
			if err != nil {
				return Shape{}, err
			}
			if i == 0 {
				out = s
			} else {
				if s.H != out.H || s.W != out.W {
					return Shape{}, fmt.Errorf("dnn: graph %s node %d concat shape mismatch %v vs %v",
						g.Name, id, out, s)
				}
				out.C += s.C
			}
		}
	}
	memo[id] = out
	return out, nil
}

// Check validates the whole graph and returns its output shape.
func (g *Graph) Check() (Shape, error) {
	if len(g.nodes) == 0 {
		return Shape{}, fmt.Errorf("dnn: graph %s is empty", g.Name)
	}
	memo := map[int]Shape{}
	return g.shapeOf(len(g.nodes)-1, memo)
}

// OutShape returns the output shape; it panics on an invalid graph (use
// Check for error handling — the zoo constructs graphs statically).
func (g *Graph) OutShape() Shape {
	s, err := g.Check()
	if err != nil {
		panic(err)
	}
	return s
}

// Cost aggregates the cost of every node at the declared input shape.
func (g *Graph) Cost() Cost {
	memo := map[int]Shape{}
	var total Cost
	for id, n := range g.nodes {
		if n.layer == nil {
			continue // concat moves pointers, no MACs
		}
		in, err := g.shapeOf(n.inputs[0], memo)
		if err != nil {
			panic(err)
		}
		total = total.Add(n.layer.CostAt(in))
		if _, err := g.shapeOf(id, memo); err != nil {
			panic(err)
		}
	}
	return total
}
