// Package telemetry is the unified instrumentation layer of the pipeline:
// per-frame stage spans with a queue-wait vs. execute split, delivered-frame
// records, and the Sink interface the experiments, the Collector and the
// live constraint monitor consume them through. Counts that belong to one
// component live in that component's typed record (a frame's
// DegradedMask, the tail scheduler's accessors, a shard store's
// CacheStats), not here; aggregates over a run are folds of the per-frame
// record.
//
// The paper's methodology judges an autonomous driving system by per-engine
// latency breakdowns and 99.99th-percentile tails, which only works if the
// instrumentation is always on and cheap enough to leave enabled. Every
// executor in this repository — the sequential Step loop, the pipelined
// Runner, and the paper-scale simulator — emits into the same Sink
// interface, so a single Collector (or Monitor) observes any of them
// without caring which executor produced the frames.
//
// Span model: one Span per stage per frame. Queue is the time the frame
// spent ready-but-waiting for the stage (all dependencies done, stage busy
// with earlier frames — nonzero only under pipelined execution); Exec is
// the stage's own run time. Engine hot kernels additionally emit sub-spans
// named "STAGE/kernel" (DET/dnn, TRA/dnn, TRA/other, LOC/fe) on frames
// where the kernel ran, which is how the Figure 7 cycle breakdowns are
// derived.
package telemetry

import "time"

// Span is one stage's execution record for one frame.
type Span struct {
	// Stage is the stage name (SRC, DET, LOC, ...) or "STAGE/kernel" for an
	// engine hot-kernel sub-span.
	Stage string
	// Frame is the frame index the span belongs to.
	Frame int
	// Queue is how long the frame sat ready in the stage's input queue
	// before execution started (queue wait). Zero for sub-spans and for
	// executors that start a stage the moment its dependencies finish.
	Queue time.Duration
	// Exec is the stage's execution time for this frame.
	Exec time.Duration
}

// FrameEnd marks one frame's delivery out of an executor.
type FrameEnd struct {
	// Frame is the delivered frame's index.
	Frame int
	// Wall is the frame's admission-to-delivery latency on the pipeline's
	// clock (wall time, or the virtual frame clock under a virtual deadline
	// policy): the honest per-frame latency at the executor's operating
	// throughput, including any time queued behind other in-flight frames.
	Wall time.Duration
	// At is when the frame was delivered. The zero time means "now"
	// (sinks substitute time.Now); the simulator sets it on its own
	// timeline and the virtual frame clock to the frame's capture time, so
	// rate calculations reflect simulated or scene time, not host time.
	At time.Time
	// Err reports whether the frame was delivered with a pipeline error.
	Err bool
	// Degraded reports whether any stage blew its deadline budget on this
	// frame and delivered its degraded-mode output (pipeline
	// DegradedMask non-zero).
	Degraded bool
}

// Sink consumes telemetry. Implementations must be safe for concurrent use:
// pipelined executors emit spans from one goroutine per stage.
type Sink interface {
	// Span records one stage execution.
	Span(s Span)
	// FrameDone records one delivered frame.
	FrameDone(f FrameEnd)
}

// Nop is the no-op sink: the zero-overhead baseline executors fall back to
// when no telemetry is attached.
type Nop struct{}

func (Nop) Span(Span)          {}
func (Nop) FrameDone(FrameEnd) {}

// multi fans telemetry out to several sinks in order.
type multi []Sink

func (m multi) Span(s Span) {
	for _, sink := range m {
		sink.Span(s)
	}
}

func (m multi) FrameDone(f FrameEnd) {
	for _, sink := range m {
		sink.FrameDone(f)
	}
}

// Multi returns a sink that forwards every event to each non-nil sink in
// order. With zero usable sinks it returns Nop; with one it returns that
// sink unwrapped.
func Multi(sinks ...Sink) Sink {
	out := make(multi, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return Nop{}
	case 1:
		return out[0]
	}
	return out
}
