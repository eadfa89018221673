package constraint

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"adsim/internal/stats"
	"adsim/internal/telemetry"
)

// MonitorConfig parameterizes the live constraint monitor.
type MonitorConfig struct {
	// Window bounds how many recent frames the rolling verdict is computed
	// over. 0 selects DefaultMonitorWindow; the window must comfortably
	// exceed MinTailSamples or the predictability verdict can never pass.
	Window int
}

// DefaultMonitorWindow holds ~1.6x the samples the P99.99 tail needs to
// resolve. Memory grows with the frames seen, up to this cap, and stays
// there however long the vehicle drives.
const DefaultMonitorWindow = 1 << 15 // 32768

// Monitor is the ONLINE half of the constraint story: where Check judges a
// finished stats.Distribution after a run, Monitor folds each delivered
// frame's wall latency into a bounded rolling window as the system executes
// — O(1) amortized per frame — and answers live Performance and
// Predictability verdicts at any moment. Both verdicts apply the exact same
// rules as Check (shared verdict helpers), so a monitor fed a run's frames
// agrees with the offline evaluation of the same samples.
//
// Monitor implements telemetry.Sink, so it attaches anywhere a Collector
// does: stage spans are ignored, delivered frames are folded in. The frame
// rate is measured from inter-delivery times over the same rolling window
// (simulated executors supply a synthetic timeline via FrameEnd.At, so the
// rate reflects simulated time, not host time).
//
// Safe for concurrent use.
type Monitor struct {
	mu sync.Mutex
	w  *stats.Window
	// ring holds one record per frame in w, oldest at head once full; it
	// grows like w's own ring (doubling, clipped to w.Cap()) while filling.
	ring []frameRecord
	head int
	// degInWindow counts degraded records in the ring; totalDeg is the
	// lifetime degraded-frame count. hardInWindow/totalHard track
	// hard deadline misses the same way — frames whose wall latency
	// exceeded the 100 ms constraint outright, the failures tail-latency
	// scheduling exists to eliminate.
	degInWindow  int
	totalDeg     int64
	hardInWindow int
	totalHard    int64
}

// frameRecord is one delivered frame's ring entry beside its latency in w.
type frameRecord struct {
	at       time.Time // delivery time
	degraded bool
	hard     bool // wall latency > MaxTailLatencyMs
}

// NewMonitor returns a live monitor with the configured rolling window.
func NewMonitor(cfg MonitorConfig) *Monitor {
	n := cfg.Window
	if n <= 0 {
		n = DefaultMonitorWindow
	}
	return &Monitor{w: stats.NewWindow(n)}
}

// ObserveDegraded folds one delivered frame in, recording whether it was
// delivered in a deadline-degraded mode (any stage fell back after blowing
// its budget). O(1) amortized.
func (m *Monitor) ObserveDegraded(wallMs float64, at time.Time, degraded bool) {
	rec := frameRecord{at: at, degraded: degraded, hard: wallMs > MaxTailLatencyMs}
	m.mu.Lock()
	m.w.Add(wallMs)
	n := m.w.Cap()
	if len(m.ring) == n {
		// The record being overwritten leaves the window.
		old := m.ring[m.head]
		if old.degraded {
			m.degInWindow--
		}
		if old.hard {
			m.hardInWindow--
		}
		m.ring[m.head] = rec
	} else {
		// Not yet wrapped: head == len(ring).
		if len(m.ring) == cap(m.ring) {
			grown := min(n, max(8, 2*cap(m.ring)))
			m.ring = append(make([]frameRecord, 0, grown), m.ring...)
		}
		m.ring = append(m.ring, rec)
	}
	if degraded {
		m.degInWindow++
		m.totalDeg++
	}
	if rec.hard {
		m.hardInWindow++
		m.totalHard++
	}
	m.head++
	if m.head == n {
		m.head = 0
	}
	m.mu.Unlock()
}

// Span implements telemetry.Sink; stage spans carry no constraint signal.
func (m *Monitor) Span(telemetry.Span) {}

// FrameDone implements telemetry.Sink: folds the delivered frame in.
func (m *Monitor) FrameDone(f telemetry.FrameEnd) {
	at := f.At
	if at.IsZero() {
		at = time.Now()
	}
	m.ObserveDegraded(float64(f.Wall)/1e6, at, f.Degraded)
}

// LiveReport is a point-in-time verdict from the rolling window. Only the
// classes the monitor can judge online (Performance, Predictability) are
// present; the static classes (storage, thermal, power) need a platform
// description and remain Check's job.
type LiveReport struct {
	Performance    Verdict
	Predictability Verdict
	// TailMs, MeanMs and FPS are the windowed measurements behind the
	// verdicts.
	TailMs float64
	MeanMs float64
	FPS    float64
	// N is the window occupancy the verdicts were computed over; Total is
	// the lifetime frame count.
	N     int
	Total int64
	// Degraded counts deadline-degraded frames in the window;
	// DegradedRate is Degraded/N (0 on an empty window); TotalDegraded is
	// the lifetime degraded count.
	Degraded      int
	DegradedRate  float64
	TotalDegraded int64
	// HardMisses counts frames in the window whose wall latency exceeded
	// MaxTailLatencyMs outright — frames the vehicle flew blind through,
	// which no degraded mode excuses; TotalHardMisses is the lifetime
	// count. The tail study's acceptance bar is zero under the scheduler.
	HardMisses      int
	TotalHardMisses int64
}

// Pass reports whether both live classes passed.
func (r LiveReport) Pass() bool {
	return r.Performance.Passed && r.Predictability.Passed
}

func (r LiveReport) String() string {
	var b strings.Builder
	for _, v := range []Verdict{r.Performance, r.Predictability} {
		mark := "PASS"
		if !v.Passed {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "%-14s %s  %s\n", v.Class, mark, v.Detail)
	}
	if r.Degraded > 0 {
		fmt.Fprintf(&b, "degraded       %d/%d frames in window (%.1f%%)\n",
			r.Degraded, r.N, 100*r.DegradedRate)
	}
	if r.HardMisses > 0 {
		fmt.Fprintf(&b, "hard misses    %d/%d frames in window over %dms\n",
			r.HardMisses, r.N, int(MaxTailLatencyMs))
	}
	return b.String()
}

// Snapshot computes the live verdicts over the current rolling window.
func (m *Monitor) Snapshot() LiveReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := LiveReport{
		TailMs:          m.w.Quantile(TailQuantile),
		MeanMs:          m.w.Mean(),
		N:               m.w.N(),
		Total:           m.w.TotalN(),
		Degraded:        m.degInWindow,
		TotalDegraded:   m.totalDeg,
		HardMisses:      m.hardInWindow,
		TotalHardMisses: m.totalHard,
	}
	if r.N > 0 {
		r.DegradedRate = float64(r.Degraded) / float64(r.N)
	}
	r.FPS = m.fpsLocked()
	r.Performance = performanceVerdict(r.TailMs, r.FPS, r.N)
	r.Predictability = predictabilityVerdict(r.TailMs, r.MeanMs, r.N)
	return r
}

// FPS reports the windowed delivery rate (frames per second).
func (m *Monitor) FPS() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fpsLocked()
}

// fpsLocked measures the delivery rate over the window: (frames-1) /
// (newest - oldest delivery time). Needs at least two frames.
func (m *Monitor) fpsLocked() float64 {
	n := len(m.ring)
	if n < 2 {
		return 0
	}
	// head is the oldest record once the ring is full and n (≡ 0) before.
	newest := m.ring[(m.head-1+n)%n].at
	oldest := m.ring[m.head%n].at
	span := newest.Sub(oldest).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(n-1) / span
}
