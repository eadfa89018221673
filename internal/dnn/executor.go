package dnn

import (
	"runtime"

	"adsim/internal/tensor"
)

// Executor is an instance-scoped inference executor. Forward runs every
// layer on its caller's goroutine; the executor's width sizes only Each,
// the fan-out of TRA's per-track work and LOC's matcher. A fleet reads the
// executor it is given as its core budget and hands its vehicles one
// executor holding each one's share, Workers()/vehicles and at least 1.
//
// There is no process-wide executor: every engine holds its own or one it
// was handed, so independent pipelines sharing a process cannot perturb
// each other's width. Results are bitwise-identical for any width.
//
// All methods are safe for concurrent use.
type Executor struct {
	// workers is Each's width; 0 means runtime.GOMAXPROCS(0).
	workers int
}

// NewExecutor builds an executor whose Each fans out across workers
// goroutines (<= 0 means runtime.GOMAXPROCS(0), read at each call).
func NewExecutor(workers int) *Executor {
	return &Executor{workers: workers}
}

// NewBatchExecutor is NewExecutor, kept for the benchmark harness in bench/
// only; it goes once bench/ stops calling it.
func NewBatchExecutor(workers int) *Executor { return NewExecutor(workers) }

// Workers reports Each's width. The default follows GOMAXPROCS, not
// NumCPU: fanning out more goroutines than the scheduler will run at once
// only adds switches. The width never changes results.
func (e *Executor) Workers() int {
	if e.workers > 0 {
		return e.workers
	}
	return runtime.GOMAXPROCS(0)
}

// GatherStats always reports (0, 0): no executor gathers calls into batches.
// It is kept for the benchmark harness in bench/ only, and goes once bench/
// stops calling it.
func (e *Executor) GatherStats() (batches, calls int64) { return 0, 0 }

// Forward runs one inference through n on the caller's goroutine, drawing
// every buffer from s; the output aliases scratch memory (see Scratch
// ownership rules).
func (e *Executor) Forward(n *Network, in *tensor.T, s *Scratch) *tensor.T {
	out, _ := n.run(in, s, nil)
	return out
}

// Each is tensor.Each over at most min(slots, Workers()) workers: a caller
// owning slots scratch sets indexes them by the worker index w.
func (e *Executor) Each(n, slots int, fn func(w, i int)) {
	tensor.Each(n, min(slots, e.Workers()), fn)
}

// ForwardAnytime is Forward with a checkpoint consulted at every layer
// boundary (see Network.run): it returns the output of the last executed
// layer and the number of layers executed. A pass whose checkpoint never
// fires is bitwise-identical to Forward.
func (e *Executor) ForwardAnytime(n *Network, in *tensor.T, s *Scratch, keep Checkpoint) (*tensor.T, int) {
	return n.run(in, s, keep)
}

// ForwardBatch runs Forward(n, ins[i], scs[i]) for each i and returns the
// outputs appended to outs[:0]; a reused outs keeps a warm call
// allocation-free. It is a loop kept for the benchmark harness in bench/
// only, and goes once bench/ stops calling it.
func (e *Executor) ForwardBatch(n *Network, ins []*tensor.T, scs []*Scratch, outs []*tensor.T) []*tensor.T {
	outs = outs[:0]
	for i, in := range ins {
		outs = append(outs, e.Forward(n, in, scs[i]))
	}
	return outs
}
