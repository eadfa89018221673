package dnn

import (
	"fmt"
	"runtime"
	"sync"

	"adsim/internal/tensor"
)

// Executor is an instance-scoped inference executor: it owns the kernel
// worker count. Every call runs on its caller's goroutine; a fleet shares one
// executor across its vehicles only so that they share one worker setting.
//
// There is no process-wide executor: every engine holds its own or one it
// was handed, so independent pipelines sharing a process cannot perturb
// each other's kernel configuration. Results are bitwise-identical for any
// worker count and for a solo Forward or a ForwardBatch of the same input
// (see the header of internal/tensor/parallel.go for the kernel-level
// contract).
//
// All methods are safe for concurrent use.
type Executor struct {
	// workers is the kernel fan-out; 0 means runtime.GOMAXPROCS(0).
	workers  int
	bufsPool sync.Pool // *batchBufs
}

// batchBufs holds one ForwardBatch's output staging and the shared patch
// arena, pooled so a warm batched forward allocates nothing.
type batchBufs struct {
	nxt   []*tensor.T
	arena tensor.Scratch
}

// NewExecutor builds an executor whose kernels fan out across workers
// goroutines (<= 0 means runtime.GOMAXPROCS(0), read at each call).
func NewExecutor(workers int) *Executor {
	return &Executor{workers: workers}
}

// NewBatchExecutor is NewExecutor. Its only caller is the benchmark harness
// in bench/; it is deleted once bench/ calls NewExecutor (ROADMAP item 11).
func NewBatchExecutor(workers int) *Executor { return NewExecutor(workers) }

// Workers reports the kernel worker count. The default follows GOMAXPROCS,
// not NumCPU: fanning out more goroutines than the scheduler will run at
// once only adds switches. Sharding never changes results.
func (e *Executor) Workers() int {
	if e.workers > 0 {
		return e.workers
	}
	return runtime.GOMAXPROCS(0)
}

// GatherStats always reports (0, 0): no executor gathers calls into batches.
// Its only caller is the benchmark harness in bench/; it is deleted once
// bench/ stops reading batch depth (ROADMAP item 11).
func (e *Executor) GatherStats() (batches, calls int64) { return 0, 0 }

// Forward runs one inference through n on the caller's goroutine, drawing
// every buffer from s; the output aliases scratch memory (see Scratch
// ownership rules).
func (e *Executor) Forward(n *Network, in *tensor.T, s *Scratch) *tensor.T {
	out, _ := n.run(in, s, e.Workers(), nil)
	return out
}

// ForwardAnytime is Forward with a checkpoint consulted at every layer
// boundary (see Network.run): it returns the output of the last executed
// layer and the number of layers executed. A pass whose checkpoint never
// fires is bitwise-identical to Forward.
func (e *Executor) ForwardAnytime(n *Network, in *tensor.T, s *Scratch, keep Checkpoint) (*tensor.T, int) {
	return n.run(in, s, e.Workers(), keep)
}

// ForwardBatch synchronously runs one batched inference: ins[i] forwards
// through n drawing from scs[i], and the outputs (aliasing each scratch's
// ping-pong slot, as in Forward) are appended to outs and returned. Pass a
// reused outs buffer to keep a warm call allocation-free. All inputs must
// share one shape.
func (e *Executor) ForwardBatch(n *Network, ins []*tensor.T, scs []*Scratch, outs []*tensor.T) []*tensor.T {
	if len(ins) == 0 || len(scs) != len(ins) {
		panic(fmt.Sprintf("dnn: batch of %d inputs, %d scratches", len(ins), len(scs)))
	}
	for i, in := range ins {
		if in.C != ins[0].C || in.H != ins[0].H || in.W != ins[0].W {
			panic(fmt.Sprintf("dnn: batch sample %d (shape %dx%dx%d) does not match sample 0",
				i, in.C, in.H, in.W))
		}
	}
	bb, _ := e.bufsPool.Get().(*batchBufs)
	if bb == nil {
		bb = &batchBufs{}
	}
	for len(bb.nxt) < len(ins) {
		bb.nxt = append(bb.nxt, nil)
	}
	outs = append(outs[:0], ins...)
	e.runBatch(n, outs, scs, bb.nxt[:len(ins)], &bb.arena)
	e.bufsPool.Put(bb)
	return outs
}

// runBatch is the batched layer loop: it advances every sample through n
// one layer at a time. Conv and FC layers run the batched kernels;
// everything else (pooling, batch norm, reorg) runs per sample through
// Layer.Forward. cur is mutated in place to the per-sample outputs. Each
// scratch sees the same begin/next sequence as a solo pass, so outputs land
// in the same ping-pong slots.
func (e *Executor) runBatch(n *Network, cur []*tensor.T, scs []*Scratch, nxt []*tensor.T, arena *tensor.Scratch) {
	w := e.Workers()
	for i := range scs {
		scs[i].begin()
	}
	for _, l := range n.Layers {
		switch l := l.(type) {
		case *Conv:
			p := l.params(cur[0].C)
			sh := l.OutShape(Shape{C: cur[0].C, H: cur[0].H, W: cur[0].W})
			for i := range cur {
				nxt[i] = scs[i].next(sh)
			}
			tensor.Conv2DIm2ColBatchInto(nxt, cur, p.w, p.b, l.OutC, l.K, l.Stride, l.Pad, w, arena)
			for i := range cur {
				cur[i] = l.Act.apply(nxt[i])
			}
		case *FC:
			p := l.params(cur[0].Len())
			for i := range cur {
				nxt[i] = scs[i].next(Shape{C: l.OutN, H: 1, W: 1})
			}
			tensor.FullyConnectedBatchInto(nxt, cur, p.w, p.b, l.OutN, w)
			for i := range cur {
				cur[i] = l.Act.apply(nxt[i])
			}
		default:
			for i := range cur {
				cur[i] = l.Forward(cur[i], scs[i], w)
			}
		}
	}
}
