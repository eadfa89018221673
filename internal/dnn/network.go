package dnn

import (
	"fmt"

	"adsim/internal/tensor"
)

// Network is a feed-forward sequence of layers with a declared input shape.
type Network struct {
	Name   string
	Input  Shape
	Layers []Layer
}

// NewNetwork builds a network. It validates that every layer produces a
// positive output shape when fed the declared input.
func NewNetwork(name string, input Shape, layers ...Layer) (*Network, error) {
	n := &Network{Name: name, Input: input, Layers: layers}
	shape := input
	for i, l := range layers {
		shape = l.OutShape(shape)
		if shape.C <= 0 || shape.H <= 0 || shape.W <= 0 {
			return nil, fmt.Errorf("dnn: %s layer %d (%s) produces invalid shape %v",
				name, i, l.Name(), shape)
		}
	}
	return n, nil
}

// MustNetwork is NewNetwork that panics on error; for the static network zoo
// whose shapes are fixed at compile time.
func MustNetwork(name string, input Shape, layers ...Layer) *Network {
	n, err := NewNetwork(name, input, layers...)
	if err != nil {
		panic(err)
	}
	return n
}

// OutShape returns the network's final output shape.
func (n *Network) OutShape() Shape {
	shape := n.Input
	for _, l := range n.Layers {
		shape = l.OutShape(shape)
	}
	return shape
}

// Cost returns the aggregate cost at the declared input shape.
func (n *Network) Cost() Cost { return n.CostAt(n.Input) }

// CostAt returns the aggregate cost for an arbitrary input shape, used by
// the resolution-scaling experiments.
func (n *Network) CostAt(input Shape) Cost {
	var total Cost
	shape := input
	for _, l := range n.Layers {
		total = total.Add(l.CostAt(shape))
		shape = l.OutShape(shape)
	}
	return total
}

// LayerCosts returns the per-layer costs at the declared input shape, in
// layer order. The platform models consume this for layer-wise roofline
// latency estimation.
func (n *Network) LayerCosts() []Cost {
	costs := make([]Cost, len(n.Layers))
	shape := n.Input
	for i, l := range n.Layers {
		costs[i] = l.CostAt(shape)
		shape = l.OutShape(shape)
	}
	return costs
}

// Checkpoint is the anytime-execution probe. Before executing layer i
// (0-based), the forward pass asks keep(i) whether the remaining budget
// still covers more work; a false answer stops the pass at that boundary.
// keep is called once per layer in ascending order, from the calling
// goroutine only.
type Checkpoint func(next int) bool

// run is the one layer loop: it feeds in through the layers, drawing
// every intermediate and output buffer from s (a warm network/scratch pair
// allocates nothing) with the conv/FC kernels sharded over workers
// goroutines. The pass stops before the first layer whose checkpoint
// reports false and returns the output of the last executed layer (in
// itself when no layer ran) with the number of layers executed; a nil keep
// runs every layer. This is the anytime-inference seam: a budget-pressed
// DET frame commits the deepest features computed so far instead of
// blowing its deadline (internal/pipeline/deadline.go, DESIGN.md §12). The
// returned tensor aliases scratch memory — see Scratch ownership rules.
func (n *Network) run(in *tensor.T, s *Scratch, workers int, keep Checkpoint) (*tensor.T, int) {
	s.begin()
	out := in
	for i, l := range n.Layers {
		if keep != nil && !keep(i) {
			return out, i
		}
		out = l.Forward(out, s, workers)
	}
	return out, len(n.Layers)
}

// Forward runs one single-threaded inference on a throwaway scratch and
// returns a caller-owned output. It is a convenience for cost studies and
// tests; the engines go through an Executor, which reuses arenas.
func (n *Network) Forward(in *tensor.T) *tensor.T {
	out, _ := n.run(in, &Scratch{}, 1, nil)
	return out
}
