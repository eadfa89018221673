package dnn

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adsim/internal/telemetry"
	"adsim/internal/tensor"
)

// Executor is an instance-scoped inference executor: it owns the kernel
// worker count and (optionally) the cross-stream batching seam that gathers
// concurrent same-shape forward calls — from many vehicles' DET/TRA engines
// — into one batched GEMM.
//
// There is no process-wide executor: every engine holds its own or one it
// was handed, so independent pipelines sharing a process cannot perturb
// each other's kernel configuration. Results are bitwise-identical for any
// worker count and whether or not batching groups a call with others (see
// the header of internal/tensor/parallel.go for the kernel-level contract).
//
// All methods are safe for concurrent use.
type Executor struct {
	// workers is the kernel fan-out; 0 means runtime.GOMAXPROCS(0).
	workers int
	// batch enables the gather seam below.
	batch bool

	// Gather state: concurrent Forward calls enqueue requests; the first
	// arrival becomes the leader and drains the queue batch by batch
	// (grouping same network/shape runs), while followers block on their
	// request's done channel. No timers are involved — batches form exactly
	// when calls overlap, so an idle stream never waits on a window.
	mu      sync.Mutex
	queue   []*fwdReq
	leading bool
	take    []*fwdReq // leader-only staging for the current batch

	// Gather hold (the fleet phase-locking seam): when holdN > 1, a new
	// leader defers its first drain until the queue holds holdN requests or
	// holdWait elapses, so co-resident streams whose frame admission is
	// phase-aligned gather into one deep batch instead of a 1-deep head
	// batch plus stragglers. holdSig is pulsed on enqueue while a hold is
	// armed. The wait is bounded, so a mis-sized cohort (a vehicle shed
	// between fleet updates) costs at most holdWait per leadership, never a
	// deadlock. Zero holdN (the default) keeps the seam fully timerless.
	holdN    atomic.Int32
	holdWait atomic.Int64 // nanoseconds
	holdSig  chan struct{}

	// Batch-depth instrumentation over the gather seam: how many drains
	// (batches, singletons included) served how many forward calls. Two
	// atomic adds per batch — noise next to a GEMM. metrics, when set,
	// additionally records the per-batch depth distribution.
	gatherBatches atomic.Int64
	gatherCalls   atomic.Int64
	metrics       atomic.Pointer[gatherMetrics]

	reqPool  sync.Pool // *fwdReq, done channel pre-allocated
	bufsPool sync.Pool // *batchBufs
}

// gatherMetrics holds the retained registry handles for batch telemetry.
type gatherMetrics struct {
	depth   *telemetry.Dist
	batches *telemetry.Counter
	calls   *telemetry.Counter
}

// fwdReq is one gathered forward call.
type fwdReq struct {
	net  *Network
	in   *tensor.T
	s    *Scratch
	out  *tensor.T
	done chan struct{}
}

// batchBufs holds one batch execution's slice staging and the shared patch
// arena, pooled so a warm batched forward allocates nothing.
type batchBufs struct {
	cur   []*tensor.T
	nxt   []*tensor.T
	scs   []*Scratch
	arena tensor.Scratch
}

// NewExecutor builds an executor whose kernels fan out across workers
// goroutines (<= 0 means runtime.GOMAXPROCS(0), read at each call). Calls
// run inline, unbatched — the right mode for a single stream.
func NewExecutor(workers int) *Executor {
	return &Executor{workers: workers, holdSig: make(chan struct{}, 1)}
}

// NewBatchExecutor is NewExecutor with the cross-stream batching seam
// enabled: concurrent Forward calls on the same network and input shape are
// executed as one batched GEMM. Outputs stay bitwise-identical to unbatched
// runs.
func NewBatchExecutor(workers int) *Executor {
	e := NewExecutor(workers)
	e.batch = true
	return e
}

// Batching reports whether the cross-stream gather seam is enabled.
func (e *Executor) Batching() bool { return e.batch }

// Workers reports the kernel worker count. The default follows GOMAXPROCS,
// not NumCPU: fanning out more goroutines than the scheduler will run at
// once only adds switches. Sharding never changes results.
func (e *Executor) Workers() int {
	if e.workers > 0 {
		return e.workers
	}
	return runtime.GOMAXPROCS(0)
}

// SetGatherHold arms (or, with cohort <= 1, disarms) the leader hold on the
// gather seam: a new leader waits until cohort requests are queued — or
// maxWait elapses — before its first drain. The fleet phase-locker keeps
// cohort equal to the number of actively admitted vehicles so one barrier
// round's DET calls land in one batch. Only meaningful on a batching
// executor; results are unaffected either way (batching never changes
// outputs), only the batch-depth distribution and the schedule.
func (e *Executor) SetGatherHold(cohort int, maxWait time.Duration) {
	if cohort <= 1 || maxWait <= 0 {
		cohort, maxWait = 0, 0
	}
	e.holdN.Store(int32(cohort))
	e.holdWait.Store(int64(maxWait))
}

// GatherStats reports how many leader drains (batches, singleton groups
// included) the gather seam has executed and how many forward calls they
// served; calls/batches is the mean batch depth. Counts are cumulative —
// callers comparing configurations should difference two readings.
func (e *Executor) GatherStats() (batches, calls int64) {
	return e.gatherBatches.Load(), e.gatherCalls.Load()
}

// SetMetrics attaches a telemetry registry to the gather seam: every drained
// batch observes its depth on dnn/batch_depth and bumps dnn/gather_batches /
// dnn/gather_calls. nil detaches.
func (e *Executor) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		e.metrics.Store(nil)
		return
	}
	e.metrics.Store(&gatherMetrics{
		depth:   reg.Dist("dnn/batch_depth"),
		batches: reg.Counter("dnn/gather_batches"),
		calls:   reg.Counter("dnn/gather_calls"),
	})
}

// noteBatch records one drained gather group of the given depth.
func (e *Executor) noteBatch(depth int) {
	e.gatherBatches.Add(1)
	e.gatherCalls.Add(int64(depth))
	if m := e.metrics.Load(); m != nil {
		m.depth.Observe(float64(depth))
		m.batches.Inc()
		m.calls.Add(int64(depth))
	}
}

// Forward runs one inference through n, drawing every buffer from s; the
// output aliases scratch memory (see Scratch ownership rules). On a batching
// executor the call may be grouped with concurrent same-shape calls; the
// result is bitwise-identical either way.
func (e *Executor) Forward(n *Network, in *tensor.T, s *Scratch) *tensor.T {
	if e.batch {
		return e.forwardGather(n, in, s)
	}
	out, _ := n.run(in, s, e.Workers(), nil)
	return out
}

// ForwardAnytime is Forward with a checkpoint consulted at every layer
// boundary (see Network.run): it returns the output of the last executed
// layer and the number of layers executed. It always runs inline and
// unbatched, even on a batching executor — an anytime call is
// latency-critical by definition, so it never waits on the gather seam. A
// pass whose checkpoint never fires is bitwise-identical to Forward.
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
	for i := 1; i < len(ins); i++ {
		if !sameShape(ins[i], ins[0]) {
			panic(fmt.Sprintf("dnn: batch sample %d (shape %dx%dx%d) does not match sample 0",
				i, ins[i].C, ins[i].H, ins[i].W))
		}
	}
	outs = append(outs[:0], ins...)
	bb := e.acquireBufs(len(ins))
	e.runBatch(n, outs, scs, bb.nxt[:len(ins)], &bb.arena)
	e.bufsPool.Put(bb)
	return outs
}

// sameShape reports whether two inputs to one network can share a batch.
func sameShape(in, in0 *tensor.T) bool {
	return in.C == in0.C && in.H == in0.H && in.W == in0.W
}

func (e *Executor) acquireBufs(n int) *batchBufs {
	bb, _ := e.bufsPool.Get().(*batchBufs)
	if bb == nil {
		bb = &batchBufs{}
	}
	for len(bb.nxt) < n {
		bb.nxt = append(bb.nxt, nil)
	}
	return bb
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

// forwardGather enqueues the call and either follows (blocks until a leader
// delivers the result) or leads: drain the queue, batching maximal
// same-key groups, until it is empty. Requests, buffers and the done
// channels are pooled, so a warm gathered call allocates nothing beyond
// the goroutine synchronization itself.
func (e *Executor) forwardGather(n *Network, in *tensor.T, s *Scratch) *tensor.T {
	req, _ := e.reqPool.Get().(*fwdReq)
	if req == nil {
		req = &fwdReq{done: make(chan struct{}, 1)}
	}
	req.net, req.in, req.s = n, in, s

	e.mu.Lock()
	e.queue = append(e.queue, req)
	if e.leading {
		e.mu.Unlock()
		if e.holdN.Load() > 1 {
			// Pulse a waiting leader: its cohort may now be complete.
			select {
			case e.holdSig <- struct{}{}:
			default:
			}
		}
		<-req.done
		out := req.out
		req.net, req.in, req.s, req.out = nil, nil, nil, nil
		e.reqPool.Put(req)
		return out
	}
	e.leading = true
	e.mu.Unlock()

	e.gatherHold()

	var out *tensor.T
	for {
		e.mu.Lock()
		if len(e.queue) == 0 {
			e.leading = false
			e.mu.Unlock()
			break
		}
		// Take every queued request compatible with the head; the filter
		// writes lag the reads, so compacting in place is safe.
		head := e.queue[0]
		take := e.take[:0]
		rest := e.queue[:0]
		for _, r := range e.queue {
			if r.net == head.net && sameShape(r.in, head.in) {
				take = append(take, r)
			} else {
				rest = append(rest, r)
			}
		}
		e.queue = rest
		e.take = take
		e.mu.Unlock()

		e.runReqs(take)
		for _, r := range take {
			if r == req {
				out = r.out
				continue
			}
			r.done <- struct{}{}
		}
	}
	// The leader's own request was in the queue throughout, so it is
	// always served before the queue drains.
	req.net, req.in, req.s, req.out = nil, nil, nil, nil
	e.reqPool.Put(req)
	return out
}

// gatherHold delays a new leader's first drain until the armed cohort is
// queued or the hold window expires. Called without e.mu held.
func (e *Executor) gatherHold() {
	n := int(e.holdN.Load())
	if n <= 1 {
		return
	}
	wait := time.Duration(e.holdWait.Load())
	if wait <= 0 {
		return
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		e.mu.Lock()
		queued := len(e.queue)
		e.mu.Unlock()
		if queued >= n {
			return
		}
		select {
		case <-e.holdSig:
			// re-check the queue; a stale pulse just loops once more
		case <-timer.C:
			return
		}
	}
}

// runReqs executes one gathered batch and stores each request's output.
func (e *Executor) runReqs(reqs []*fwdReq) {
	e.noteBatch(len(reqs))
	if len(reqs) == 1 {
		reqs[0].out, _ = reqs[0].net.run(reqs[0].in, reqs[0].s, e.Workers(), nil)
		return
	}
	bb := e.acquireBufs(len(reqs))
	bb.cur = bb.cur[:0]
	bb.scs = bb.scs[:0]
	for _, r := range reqs {
		bb.cur = append(bb.cur, r.in)
		bb.scs = append(bb.scs, r.s)
	}
	e.runBatch(reqs[0].net, bb.cur, bb.scs, bb.nxt[:len(reqs)], &bb.arena)
	for i, r := range reqs {
		r.out = bb.cur[i]
	}
	e.bufsPool.Put(bb)
}
