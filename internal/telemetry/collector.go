package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"adsim/internal/stats"
)

// Collector is the standard aggregating Sink: it folds every span into
// per-stage queue/exec distributions and every delivered frame into a
// wall-latency distribution, and renders the result as a table, JSON or
// CSV. Stages are reported in first-seen order, which under both executors
// is the stage-graph order. One mutex guards every aggregate; a warm Span
// allocates nothing.
type Collector struct {
	windowCap int

	mu       sync.Mutex
	stages   map[string]*stageAgg // keyed by Span.Stage
	order    []string             // stage names in first-seen order
	wall     *stats.Window        // delivered-frame wall latency (ms); TotalN counts frames
	errs     int64
	degraded int64
}

// stageAgg is one stage's span aggregate: its rolling queue-wait and
// execution windows (ms). exec's lifetime count is the stage's span count.
type stageAgg struct {
	queue, exec *stats.Window
}

// NewCollector returns a collector whose streaming distributions keep the
// most recent windowCap samples (0 selects the default window).
func NewCollector(windowCap int) *Collector {
	return &Collector{
		windowCap: windowCap,
		stages:    make(map[string]*stageAgg),
		wall:      stats.NewWindow(windowCap),
	}
}

const msPerNs = 1e-6

// Span folds one stage execution into the per-stage aggregates.
func (c *Collector) Span(s Span) {
	c.mu.Lock()
	a := c.stages[s.Stage]
	if a == nil {
		a = &stageAgg{queue: stats.NewWindow(c.windowCap), exec: stats.NewWindow(c.windowCap)}
		c.stages[s.Stage] = a
		c.order = append(c.order, s.Stage)
	}
	a.exec.Add(float64(s.Exec) * msPerNs)
	a.queue.Add(float64(s.Queue) * msPerNs)
	c.mu.Unlock()
}

// FrameDone folds one delivered frame's wall latency in.
func (c *Collector) FrameDone(f FrameEnd) {
	c.mu.Lock()
	if f.Err {
		c.errs++
	}
	if f.Degraded {
		c.degraded++
	}
	c.wall.Add(float64(f.Wall) * msPerNs)
	c.mu.Unlock()
}

// Frames reports how many frames have been delivered into the collector.
func (c *Collector) Frames() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wall.TotalN()
}

// FrameErrs reports how many delivered frames carried an error.
func (c *Collector) FrameErrs() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errs
}

// ExecSumMs returns the lifetime sum (ms) of a stage's execution time over
// every span recorded for it — the aggregate the Figure 7 cycle breakdowns
// divide. Returns 0 for a stage that never ran.
func (c *Collector) ExecSumMs(stage string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a := c.stages[stage]; a != nil {
		return a.exec.TotalSum()
	}
	return 0
}

// SpanCount reports how many spans were recorded for a stage.
func (c *Collector) SpanCount(stage string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a := c.stages[stage]; a != nil {
		return a.exec.TotalN()
	}
	return 0
}

// StageSummary is one stage's aggregated span statistics. All latencies are
// milliseconds; quantiles are over the collector's rolling window.
type StageSummary struct {
	Stage       string  `json:"stage"`
	Frames      int64   `json:"frames"`
	QueueMeanMs float64 `json:"queue_mean_ms"`
	QueueP99Ms  float64 `json:"queue_p99_ms"`
	QueueMaxMs  float64 `json:"queue_max_ms"`
	ExecMeanMs  float64 `json:"exec_mean_ms"`
	ExecP99Ms   float64 `json:"exec_p99_ms"`
	ExecP9999Ms float64 `json:"exec_p9999_ms"`
	ExecSumMs   float64 `json:"exec_sum_ms"`
}

// FrameSummary aggregates the delivered-frame wall latencies.
type FrameSummary struct {
	Frames     int64   `json:"frames"`
	Errs       int64   `json:"errs"`
	Degraded   int64   `json:"degraded"`
	WallMeanMs float64 `json:"wall_mean_ms"`
	WallP99Ms  float64 `json:"wall_p99_ms"`
	WallP99p99 float64 `json:"wall_p9999_ms"`
	WallMaxMs  float64 `json:"wall_max_ms"`
}

// Summary is the collector's full export.
type Summary struct {
	Stages []StageSummary `json:"stages"`
	Frame  FrameSummary   `json:"frame"`
}

// Summarize snapshots every stage (in first-seen order) and the frame wall
// distribution.
func (c *Collector) Summarize() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out Summary
	for _, stage := range c.order {
		q, e := c.stages[stage].queue, c.stages[stage].exec
		out.Stages = append(out.Stages, StageSummary{
			Stage:       stage,
			Frames:      e.TotalN(),
			QueueMeanMs: q.Mean(),
			QueueP99Ms:  q.P99(),
			QueueMaxMs:  q.Max(),
			ExecMeanMs:  e.Mean(),
			ExecP99Ms:   e.P99(),
			ExecP9999Ms: e.P9999(),
			ExecSumMs:   e.TotalSum(),
		})
	}
	out.Frame = FrameSummary{
		Frames:     c.wall.TotalN(),
		Errs:       c.errs,
		Degraded:   c.degraded,
		WallMeanMs: c.wall.Mean(),
		WallP99Ms:  c.wall.P99(),
		WallP99p99: c.wall.P9999(),
		WallMaxMs:  c.wall.Max(),
	}
	return out
}

// WriteJSON writes the summary as indented JSON.
func (c *Collector) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c.Summarize()); err != nil {
		return fmt.Errorf("telemetry: json export: %w", err)
	}
	return nil
}

// WriteCSV writes the per-stage summary as CSV (one header row, one row per
// stage, then one "frame" row for the wall-latency aggregate).
func (c *Collector) WriteCSV(w io.Writer) error {
	s := c.Summarize()
	var b strings.Builder
	b.WriteString("stage,frames,queue_mean_ms,queue_p99_ms,queue_max_ms,exec_mean_ms,exec_p99_ms,exec_p9999_ms,exec_sum_ms\n")
	for _, row := range s.Stages {
		fmt.Fprintf(&b, "%s,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
			row.Stage, row.Frames, row.QueueMeanMs, row.QueueP99Ms, row.QueueMaxMs,
			row.ExecMeanMs, row.ExecP99Ms, row.ExecP9999Ms, row.ExecSumMs)
	}
	fmt.Fprintf(&b, "frame,%d,,,,%.4f,%.4f,%.4f,\n",
		s.Frame.Frames, s.Frame.WallMeanMs, s.Frame.WallP99Ms, s.Frame.WallP99p99)
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("telemetry: csv export: %w", err)
	}
	return nil
}

// String renders the summary as an aligned human-readable table.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %7s %11s %11s %11s %11s %12s\n",
		"stage", "frames", "queue mean", "queue p99", "exec mean", "exec p99", "exec p99.99")
	for _, row := range s.Stages {
		fmt.Fprintf(&b, "%-12s %7d %9.3fms %9.3fms %9.3fms %9.3fms %10.3fms\n",
			row.Stage, row.Frames, row.QueueMeanMs, row.QueueP99Ms,
			row.ExecMeanMs, row.ExecP99Ms, row.ExecP9999Ms)
	}
	fmt.Fprintf(&b, "frame wall: mean=%.3fms p99=%.3fms p99.99=%.3fms max=%.3fms (%d frames, %d errs, %d degraded)\n",
		s.Frame.WallMeanMs, s.Frame.WallP99Ms, s.Frame.WallP99p99, s.Frame.WallMaxMs,
		s.Frame.Frames, s.Frame.Errs, s.Frame.Degraded)
	return b.String()
}
