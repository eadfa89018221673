package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// RunnerOptions parameterizes the pipelined executor.
type RunnerOptions struct {
	// InFlight bounds the number of frames admitted but not yet delivered
	// (the pipelining window). 1 degenerates to sequential Step behaviour;
	// values above 1 let frame N+1's DET/LOC start while frame N is still
	// in TRA→FUSION→MOTPLAN. 0 selects DefaultInFlight.
	//
	// With Tail set this is the window CEILING: the scheduler shrinks the
	// live admission window below it under tail pressure and grows back on
	// recovery, never above InFlight and never below 1.
	InFlight int
	// Tail, when non-nil, puts admission under the closed-loop
	// tail-latency controller (see tail.go): the in-flight window adapts
	// to the rolling P99.99 and each admitted frame is stamped with the
	// controller's current DET resolution rung. A scheduler serves exactly
	// one executor; NewRunner claims it.
	Tail *TailScheduler
	// gate, when non-nil, is the fleet's view of this stream in its
	// admission controller, consulted before every frame admission — BEFORE
	// the in-flight window (and before the tail scheduler): Admit blocks
	// while the stream is shed or waiting for the phase beat, and a false
	// return ends the stream (the runner drains and closes as if Stop had
	// been called). Leave is called when the frame supply is exhausted and
	// from Stop, to unblock a pending Admit.
	gate *vehicleGate
}

// DefaultInFlight is the default pipelining window. Three frames cover the
// three sequential macro-stages (DET/LOC, TRA, back end), so every stage
// has work each beat without queueing latency beyond the stage depth.
const DefaultInFlight = 3

// RunnerResult is one frame's output from the pipelined executor, delivered
// in frame order.
type RunnerResult struct {
	FrameResult
	// Err carries this frame's pipeline error (mission update or motion
	// planning), if any. Later frames still flow; the consumer decides
	// whether to Stop.
	Err error
	// Wall is the frame's admission-to-delivery latency on the pipeline's
	// clock: wall time, or virtual time under DeadlinePolicy.Virtual.
	// Unlike Timing.E2E (the longest path through the stage graph over the
	// stages' execution times), Wall includes SRC, the stage queues and the
	// time spent behind other in-flight frames, so it is the honest
	// per-frame latency at a given throughput.
	Wall time.Duration
}

// Runner pipelines frames through the pipeline's stage graph (stageDeps in
// graph.go): every stage runs on its own long-lived goroutine, connected by
// one channel per table edge, with a join at each multi-dependency stage.
// The topology is not restated here — it is read from the same table the
// sequential Step executor walks, so the two can never diverge. Every
// stateful engine still sees frames strictly in order on a single
// goroutine, so the results are bitwise-identical to a sequential Step
// loop on the same seed — only the wall-clock schedule changes.
//
// A frame whose stage errors (mission update, motion planning) skips its
// downstream stages and is delivered with Err set; later frames are
// unaffected and keep flowing.
//
// A Runner owns its Pipeline from construction: calling Step (or mutating
// engines) while the runner is active races with the stage goroutines.
type Runner struct {
	p       *Pipeline
	opts    RunnerOptions
	win     *window
	results chan RunnerResult
	started atomic.Bool
}

// window is the Runner's admission window: at most limit frames admitted
// but not yet delivered. A TailScheduler embeds one and adapts it — moving
// limit, choosing the size admitted frames are stamped with, folding each
// delivered frame's latency — all under mu.
type window struct {
	mu       sync.Mutex
	cond     *sync.Cond // on mu: a slot freed, or the window closed
	limit    int        // >= 1
	inflight int        // admitted but undelivered frames
	closed   bool
	// size is the DET input size stamped on admitted frames (0 = the
	// detector's configured size); delivered, when set, is called under mu
	// with each delivered frame's latency.
	size      int
	delivered func(wallMs float64)
	// opened holds, under DeadlinePolicy.Virtual, the virtual delivery time
	// that opened each free slot, in delivery order; the frame that claims
	// a slot is admitted at its time. Slots free since the window opened
	// precede them, at time 0: limit-inflight-len(opened) of them.
	virtual bool
	opened  []time.Duration
}

func newWindow(limit int) *window {
	w := &window{limit: limit}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// admit blocks until a slot is free and claims it, returning the DET input
// size committed for the admitted frame — read under the same lock that
// decides rung transitions, by the single admitting goroutine, so frames
// observe resolution changes strictly in admission order. ok=false after
// interrupt.
func (w *window) admit() (size int, ok bool) {
	size, _, ok = w.admitAt()
	return size, ok
}

// admitAt is admit that also returns the frame's virtual admission: the
// time of the slot it claims (0 on the wall clock).
func (w *window) admitAt() (size int, at time.Duration, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for !w.closed && w.inflight >= w.limit {
		w.cond.Wait()
	}
	if w.closed {
		return 0, 0, false
	}
	if w.virtual && w.limit-w.inflight == len(w.opened) {
		at = w.opened[0]
		w.opened = w.opened[:copy(w.opened, w.opened[1:])]
	}
	w.inflight++
	return w.size, at, true
}

// frameDone frees the delivered frame's slot.
func (w *window) frameDone(wallMs float64) { w.deliveredAt(wallMs, 0) }

// deliveredAt is frameDone for a frame delivered at virtual time at: each
// slot the delivery opens (one, none after a shrink, two after a grow) is
// stamped with it.
func (w *window) deliveredAt(wallMs float64, at time.Duration) {
	w.mu.Lock()
	free := w.limit - w.inflight
	if w.inflight > 0 {
		w.inflight--
	}
	if w.delivered != nil {
		w.delivered(wallMs)
	}
	if w.virtual {
		for n := w.limit - w.inflight - free; n > 0; n-- {
			w.opened = append(w.opened, at)
		}
	}
	w.mu.Unlock()
	w.cond.Signal()
}

// interrupt permanently unblocks admission: no frame is admitted after it
// returns.
func (w *window) interrupt() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.cond.Broadcast()
}

// NewRunner wraps a native pipeline in a pipelined executor.
func NewRunner(p *Pipeline, opts RunnerOptions) (*Runner, error) {
	if p == nil {
		return nil, fmt.Errorf("pipeline: nil pipeline")
	}
	if opts.InFlight == 0 {
		opts.InFlight = DefaultInFlight
	}
	if opts.InFlight < 1 {
		return nil, fmt.Errorf("pipeline: InFlight %d must be positive", opts.InFlight)
	}
	var win *window
	if opts.Tail != nil {
		if err := opts.Tail.attach(opts.InFlight); err != nil {
			return nil, err
		}
		p.det.Warm(opts.Tail.ladder...)
		win = &opts.Tail.window
	} else {
		win = newWindow(opts.InFlight)
	}
	win.virtual = p.clock.virtual
	return &Runner{p: p, opts: opts, win: win, results: make(chan RunnerResult)}, nil
}

// InFlight reports the configured pipelining window.
func (r *Runner) InFlight() int { return r.opts.InFlight }

// Run starts one goroutine per graph stage and returns the in-order result
// channel. The channel closes after frames results have been delivered, or
// earlier if Stop drains the window first; frames <= 0 runs until Stop.
// Run may be called once; subsequent calls return the same channel.
func (r *Runner) Run(frames int) <-chan RunnerResult {
	if !r.started.CompareAndSwap(false, true) {
		return r.results
	}
	n := r.opts.InFlight

	// One channel per stageDeps edge, buffered to the window size: at most
	// InFlight frames exist at once, so sends below never block — only
	// admission does. inputs[s][i] is the edge from s's i-th dependency.
	var inputs, outputs [NumStages][]chan *frameState
	for id, deps := range stageDeps {
		for _, dep := range deps {
			ch := make(chan *frameState, n)
			inputs[id] = append(inputs[id], ch)
			outputs[dep] = append(outputs[dep], ch)
		}
	}
	// The terminal stage's single consumer is the delivery loop.
	deliver := make(chan *frameState, n)
	outputs[StageControl] = append(outputs[StageControl], deliver)

	var stages sync.WaitGroup // every engine-stage goroutine, for shutdown

	closeAll := func(chs []chan *frameState) {
		for _, ch := range chs {
			close(ch)
		}
	}

	// SRC: render frames in scenario order and admit them into the window.
	// Under a tail scheduler the window is ADAPTIVE (the live limit, <= n)
	// while the stage edges above stay buffered to the ceiling n — so a
	// mid-flight shrink only slows admission, it can never make an
	// in-flight frame's fan-out send block and deadlock a join. The
	// admitted frame is stamped with the controller's current resolution
	// rung under the same lock that decides rung transitions, so scale
	// changes reach DET strictly in admission order.
	srcOut := outputs[StageSrc]
	gate := r.opts.gate
	go func() {
		defer closeAll(srcOut)
		if gate != nil {
			defer gate.Leave()
		}
		for i := 0; frames <= 0 || i < frames; i++ {
			if gate != nil && !gate.Admit() {
				return // shed stream ended, or Stop
			}
			detSize, vadmit, ok := r.win.admitAt()
			if !ok {
				return // Stop interrupted admission
			}
			fs := &frameState{admitted: time.Now(), vadmit: vadmit, detSize: detSize}
			r.p.execStage(StageSrc, fs)
			for _, ch := range srcOut {
				ch <- fs
			}
		}
	}()

	// Engine stages: one goroutine each, consuming every dependency's
	// stream. All streams deliver the same frames in admission order, so
	// receiving one item from each joins the frame; the receive also
	// orders the dependency's writes (including its doneAt stamp) before
	// execStage reads them.
	for id := StageSrc + 1; id < NumStages; id++ {
		ins, outs := inputs[id], outputs[id]
		stages.Add(1)
		go func() {
			// Drain before close (LIFO defers): a budget-blown frame may
			// have left a late attempt running against this stage's
			// engine. Waiting for it before the downstream channels close
			// keeps Stop's drain contract honest — once the result channel
			// closes, no stage goroutine is still touching an engine, even
			// if the last in-flight frame degraded. The Done fires last,
			// after the drain: the delivery loop waits on the group, so
			// closure of the result channel orders after every drain —
			// including stages off the terminal close-propagation chain
			// (a join stage exits on its FIRST dependency's closure, so
			// e.g. LOC may still be draining when CONTROL has already
			// closed the delivery channel).
			defer stages.Done()
			defer closeAll(outs)
			defer r.p.drainStage(id)
			for {
				fs, ok := <-ins[0]
				if !ok {
					return
				}
				for _, ch := range ins[1:] {
					<-ch // same frame: every stream preserves admission order
				}
				r.p.execStage(id, fs)
				for _, ch := range outs {
					ch <- fs
				}
			}
		}()
	}

	// DELIVER: in admission order, emit telemetry and free the window slot.
	go func() {
		defer close(r.results)
		for fs := range deliver {
			res := r.p.deliver(fs)
			r.results <- res
			// Frees the slot (and feeds a tail scheduler its signal).
			r.win.deliveredAt(float64(res.Wall)/1e6, fs.vdone[StageControl])
		}
		// All frames are delivered, but stages off the terminal
		// close-propagation chain may still be draining abandoned late
		// attempts. The result-channel close is the caller's license to
		// touch the pipeline again, so it must order after every drain.
		stages.Wait()
	}()
	return r.results
}

// Stop ceases admitting new frames. Frames already in flight drain through
// the stages and are delivered in order before the result channel closes,
// so no admitted frame is ever lost — including frames that degraded under
// deadline enforcement, whose abandoned late attempts are also waited for
// before the stage goroutines exit. Safe to call multiple times and from
// any goroutine, including while ranging over Run's channel.
func (r *Runner) Stop() {
	r.win.interrupt() // unblock a SRC goroutine waiting on admission
	if r.opts.gate != nil {
		r.opts.gate.Leave() // unblock a SRC goroutine waiting at the gate
	}
}
