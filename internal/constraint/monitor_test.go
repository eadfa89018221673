package constraint

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"adsim/internal/stats"
	"adsim/internal/telemetry"
)

// feed drives one sample set through a fresh monitor at a fixed simulated
// delivery rate and returns the monitor plus the equivalent offline inputs.
func feed(t *testing.T, samples []float64, fps float64) (*Monitor, *stats.Distribution) {
	t.Helper()
	m := NewMonitor(MonitorConfig{Window: len(samples) + 1})
	d := stats.NewDistribution(len(samples))
	base := time.Unix(0, 0)
	dt := time.Duration(float64(time.Second) / fps)
	for i, v := range samples {
		m.Observe(v, base.Add(time.Duration(i)*dt))
		d.Add(v)
	}
	return m, d
}

// TestMonitorAgreesWithOfflineCheck is the acceptance-criteria test: on the
// same sample set (and the monitor's own measured rate), the live monitor's
// Performance and Predictability verdicts must equal the offline Check's.
func TestMonitorAgreesWithOfflineCheck(t *testing.T) {
	rng := stats.NewRNG(42)
	mk := func(n int, mean, sd float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Abs(rng.Normal(mean, sd))
		}
		return out
	}
	cases := []struct {
		name    string
		samples []float64
		fps     float64
	}{
		{"fast-and-predictable", mk(25000, 20, 2), 50},
		{"tail-too-slow", mk(25000, 90, 15), 50},
		{"rate-too-low", mk(25000, 20, 2), 5},
		{"too-few-samples", mk(500, 20, 2), 50},
		{"unpredictable-blowup", append(mk(24999, 5, 0.1), 80), 50},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, d := feed(t, tc.samples, tc.fps)
			live := m.Snapshot()
			offline := Check(Input{Latency: d, FrameRate: live.FPS})
			if live.Performance.Passed != offline.Verdicts[Performance].Passed {
				t.Errorf("performance: live %v, offline %v\nlive: %s\noffline: %s",
					live.Performance.Passed, offline.Verdicts[Performance].Passed,
					live.Performance.Detail, offline.Verdicts[Performance].Detail)
			}
			if live.Predictability.Passed != offline.Verdicts[Predictability].Passed {
				t.Errorf("predictability: live %v, offline %v\nlive: %s\noffline: %s",
					live.Predictability.Passed, offline.Verdicts[Predictability].Passed,
					live.Predictability.Detail, offline.Verdicts[Predictability].Detail)
			}
			// The measurements themselves must agree exactly: same samples,
			// same quantile interpolation.
			if live.TailMs != d.Quantile(TailQuantile) {
				t.Errorf("tail: live %v, offline %v", live.TailMs, d.Quantile(TailQuantile))
			}
			if live.MeanMs != d.Mean() {
				t.Errorf("mean: live %v, offline %v", live.MeanMs, d.Mean())
			}
		})
	}
}

func TestMonitorMeasuresFPS(t *testing.T) {
	samples := make([]float64, 101)
	for i := range samples {
		samples[i] = 10
	}
	m, _ := feed(t, samples, 25)
	if fps := m.FPS(); math.Abs(fps-25) > 0.01 {
		t.Errorf("fps = %v, want ~25", fps)
	}
}

// TestMonitorRollingWindowForgets checks the live half of the contract: a
// latency regression must surface once the window rolls past the good era.
func TestMonitorRollingWindowForgets(t *testing.T) {
	m := NewMonitor(MonitorConfig{Window: 100})
	base := time.Unix(0, 0)
	at := func(i int) time.Time { return base.Add(time.Duration(i) * 20 * time.Millisecond) }
	for i := 0; i < 100; i++ {
		m.Observe(10, at(i))
	}
	if tail := m.Snapshot().TailMs; tail != 10 {
		t.Fatalf("healthy tail = %v", tail)
	}
	for i := 100; i < 200; i++ {
		m.Observe(500, at(i))
	}
	snap := m.Snapshot()
	if snap.TailMs != 500 {
		t.Errorf("regressed tail = %v, want 500 (window should have forgotten the good era)", snap.TailMs)
	}
	if snap.Performance.Passed {
		t.Error("performance verdict should fail after the regression")
	}
	if snap.N != 100 || snap.Total != 200 {
		t.Errorf("window n=%d total=%d, want 100/200", snap.N, snap.Total)
	}
}

// TestMonitorAsTelemetrySink drives the monitor through the Sink interface
// the executors use, with a synthetic timeline.
func TestMonitorAsTelemetrySink(t *testing.T) {
	var sink telemetry.Sink = NewMonitor(MonitorConfig{Window: 64})
	m := sink.(*Monitor)
	base := time.Unix(0, 0)
	for i := 0; i < 32; i++ {
		sink.Span(telemetry.Span{Stage: "DET"}) // ignored
		sink.FrameDone(telemetry.FrameEnd{
			Frame: i,
			Wall:  15 * time.Millisecond,
			At:    base.Add(time.Duration(i) * 50 * time.Millisecond),
		})
	}
	snap := m.Snapshot()
	if snap.N != 32 {
		t.Errorf("n = %d, want 32", snap.N)
	}
	if snap.TailMs != 15 {
		t.Errorf("tail = %v, want 15", snap.TailMs)
	}
	if math.Abs(snap.FPS-20) > 0.01 {
		t.Errorf("fps = %v, want ~20", snap.FPS)
	}
	// Zero At must not panic and must fall back to the host clock.
	sink.FrameDone(telemetry.FrameEnd{Frame: 32, Wall: time.Millisecond})
	if m.Snapshot().N != 33 {
		t.Error("zero-At frame not folded in")
	}
	if s := snap.String(); !strings.Contains(s, "performance") || !strings.Contains(s, "predictability") {
		t.Errorf("report render = %q", s)
	}
}

// TestMonitorDegenerateWindows pins the short-window edges: an empty
// window, a single frame and an all-zero-latency window must produce
// honest failing (or passing) verdicts with finite, renderable numbers —
// never NaN, which fails every comparison and poisons the report text.
func TestMonitorDegenerateWindows(t *testing.T) {
	noNaN := func(t *testing.T, r LiveReport) {
		t.Helper()
		for name, v := range map[string]float64{
			"tail": r.TailMs, "mean": r.MeanMs, "fps": r.FPS, "degraded-rate": r.DegradedRate,
		} {
			if math.IsNaN(v) {
				t.Errorf("%s is NaN", name)
			}
		}
		if s := r.String(); strings.Contains(s, "NaN") {
			t.Errorf("report renders NaN: %q", s)
		}
	}

	t.Run("empty", func(t *testing.T) {
		r := NewMonitor(MonitorConfig{}).Snapshot()
		noNaN(t, r)
		if r.Pass() {
			t.Error("empty window must not certify")
		}
		if r.N != 0 || r.Degraded != 0 || r.DegradedRate != 0 {
			t.Errorf("empty window counts: n=%d degraded=%d rate=%v", r.N, r.Degraded, r.DegradedRate)
		}
	})

	t.Run("single-frame", func(t *testing.T) {
		m := NewMonitor(MonitorConfig{Window: 8})
		m.ObserveDegraded(12, time.Unix(0, 0), true)
		r := m.Snapshot()
		noNaN(t, r)
		if r.N != 1 || r.Degraded != 1 || r.DegradedRate != 1 {
			t.Errorf("n=%d degraded=%d rate=%v, want 1/1/1", r.N, r.Degraded, r.DegradedRate)
		}
		if r.FPS != 0 {
			t.Errorf("one delivery has no measurable rate, got %v", r.FPS)
		}
		if r.Predictability.Passed {
			t.Error("one sample cannot certify predictability")
		}
	})

	t.Run("all-zero-latency", func(t *testing.T) {
		m := NewMonitor(MonitorConfig{Window: 64})
		base := time.Unix(0, 0)
		for i := 0; i < 64; i++ {
			m.Observe(0, base.Add(time.Duration(i)*10*time.Millisecond))
		}
		r := m.Snapshot()
		noNaN(t, r)
		// Zero mean, zero tail: perfectly flat. The blowup guard treats it
		// as 1x, so predictability fails only on sample count here.
		if !strings.Contains(r.Predictability.Detail, "1.0x") {
			t.Errorf("flat window detail = %q, want 1.0x blowup", r.Predictability.Detail)
		}
	})

	t.Run("zero-mean-positive-tail", func(t *testing.T) {
		// Directly exercise the verdict helper's other guard arm: a zero
		// mean with a positive tail is an unbounded blowup, not NaN.
		v := predictabilityVerdict(5, 0, MinTailSamples)
		if v.Passed {
			t.Error("infinite blowup passed")
		}
		if strings.Contains(v.Detail, "NaN") {
			t.Errorf("detail renders NaN: %q", v.Detail)
		}
	})
}

// TestMonitorDegradedWindowEviction checks the degraded ring's accounting
// across window wrap: once degraded frames roll out of the window the
// windowed count and rate must drop back, while the lifetime total keeps
// counting.
func TestMonitorDegradedWindowEviction(t *testing.T) {
	m := NewMonitor(MonitorConfig{Window: 10})
	base := time.Unix(0, 0)
	at := func(i int) time.Time { return base.Add(time.Duration(i) * 10 * time.Millisecond) }
	// 10 degraded frames fill the window...
	for i := 0; i < 10; i++ {
		m.ObserveDegraded(10, at(i), true)
	}
	r := m.Snapshot()
	if r.Degraded != 10 || r.DegradedRate != 1 || r.TotalDegraded != 10 {
		t.Fatalf("full-degraded window: %d in window, rate %v, total %d", r.Degraded, r.DegradedRate, r.TotalDegraded)
	}
	// ...then 7 clean frames evict 7 of them...
	for i := 10; i < 17; i++ {
		m.ObserveDegraded(10, at(i), false)
	}
	r = m.Snapshot()
	if r.Degraded != 3 || r.TotalDegraded != 10 {
		t.Fatalf("after 7 clean: %d in window (want 3), total %d (want 10)", r.Degraded, r.TotalDegraded)
	}
	if r.DegradedRate != 0.3 {
		t.Fatalf("rate = %v, want 0.3", r.DegradedRate)
	}
	// ...and clean frames evicting clean frames change nothing.
	for i := 17; i < 20; i++ {
		m.ObserveDegraded(10, at(i), false)
	}
	r = m.Snapshot()
	if r.Degraded != 0 || r.TotalDegraded != 10 {
		t.Fatalf("fully evicted: %d in window (want 0), total %d (want 10)", r.Degraded, r.TotalDegraded)
	}
	if strings.Contains(r.String(), "degraded") {
		t.Error("report should omit the degraded line when the window is clean")
	}
	// A mixed wrap: alternate degraded frames for two full window turns and
	// verify the steady-state count matches the alternation exactly.
	for i := 20; i < 40; i++ {
		m.ObserveDegraded(10, at(i), i%2 == 0)
	}
	r = m.Snapshot()
	if r.Degraded != 5 || r.TotalDegraded != 20 {
		t.Fatalf("alternating steady state: %d in window (want 5), total %d (want 20)", r.Degraded, r.TotalDegraded)
	}
	if !strings.Contains(r.String(), "5/10 frames in window (50.0%)") {
		t.Errorf("report = %q, want the degraded line", r.String())
	}
}

func TestMonitorHardMissTracking(t *testing.T) {
	m := NewMonitor(MonitorConfig{Window: 8})
	base := time.Unix(0, 0)
	at := func(i int) time.Time { return base.Add(time.Duration(i) * 10 * time.Millisecond) }
	// Frames at exactly the 100ms limit are NOT hard misses (the constraint
	// is <=); only strictly-over frames count, degraded or not.
	m.ObserveDegraded(MaxTailLatencyMs, at(0), true)
	m.Observe(50, at(1))
	m.Observe(130, at(2))
	m.ObserveDegraded(250, at(3), true)
	r := m.Snapshot()
	if r.HardMisses != 2 || r.TotalHardMisses != 2 {
		t.Fatalf("hard misses = %d (total %d), want 2/2", r.HardMisses, r.TotalHardMisses)
	}
	if !strings.Contains(r.String(), "hard misses    2/4 frames in window over 100ms") {
		t.Errorf("report = %q, want the hard-miss line", r.String())
	}
	// Evicting the misses out of the ring drops the windowed count but the
	// lifetime count sticks.
	for i := 4; i < 12; i++ {
		m.Observe(20, at(i))
	}
	r = m.Snapshot()
	if r.HardMisses != 0 || r.TotalHardMisses != 2 {
		t.Fatalf("after eviction: %d in window (want 0), total %d (want 2)", r.HardMisses, r.TotalHardMisses)
	}
	if strings.Contains(r.String(), "hard misses") {
		t.Error("report should omit the hard-miss line when the window is clean")
	}
	// Wrapping misses over misses keeps the windowed count exact.
	for i := 12; i < 28; i++ {
		m.Observe(float64(50+100*(i%2)), at(i)) // alternate 50 / 150
	}
	r = m.Snapshot()
	if r.HardMisses != 4 || r.TotalHardMisses != 10 {
		t.Fatalf("alternating steady state: %d in window (want 4), total %d (want 10)", r.HardMisses, r.TotalHardMisses)
	}
}

func TestMonitorEmptyAndConcurrent(t *testing.T) {
	m := NewMonitor(MonitorConfig{})
	snap := m.Snapshot()
	if snap.Performance.Passed || snap.Predictability.Passed {
		t.Error("empty monitor must not pass")
	}
	if snap.Pass() {
		t.Error("empty Pass() true")
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Observe(10, time.Now())
				_ = m.Snapshot()
			}
		}()
	}
	wg.Wait()
	if m.Snapshot().Total != 2000 {
		t.Errorf("total = %d, want 2000", m.Snapshot().Total)
	}
}

// threeRingMonitor is the monitor as first written: three parallel rings
// allocated up front beside the latency window. It is the reference the
// single growing ring of records must match.
type threeRingMonitor struct {
	w                         *stats.Window
	at                        []time.Time
	deg, hard                 []bool
	head, count               int
	degInWindow, hardInWindow int
	totalDeg, totalHard       int64
}

func newThreeRingMonitor(n int) *threeRingMonitor {
	return &threeRingMonitor{w: stats.NewWindow(n), at: make([]time.Time, n), deg: make([]bool, n), hard: make([]bool, n)}
}

func (m *threeRingMonitor) observe(wallMs float64, at time.Time, degraded bool) {
	hard := wallMs > MaxTailLatencyMs
	m.w.Add(wallMs)
	if m.count == len(m.at) {
		if m.deg[m.head] {
			m.degInWindow--
		}
		if m.hard[m.head] {
			m.hardInWindow--
		}
	}
	m.at[m.head], m.deg[m.head], m.hard[m.head] = at, degraded, hard
	if degraded {
		m.degInWindow++
		m.totalDeg++
	}
	if hard {
		m.hardInWindow++
		m.totalHard++
	}
	m.head = (m.head + 1) % len(m.at)
	if m.count < len(m.at) {
		m.count++
	}
}

func (m *threeRingMonitor) fps() float64 {
	if m.count < 2 {
		return 0
	}
	newest := m.at[(m.head-1+len(m.at))%len(m.at)]
	oldest := m.at[(m.head-m.count+len(m.at))%len(m.at)]
	span := newest.Sub(oldest).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(m.count-1) / span
}

func (m *threeRingMonitor) snapshot() LiveReport {
	r := LiveReport{
		TailMs: m.w.Quantile(TailQuantile), MeanMs: m.w.Mean(), N: m.w.N(), Total: m.w.TotalN(),
		Degraded: m.degInWindow, TotalDegraded: m.totalDeg,
		HardMisses: m.hardInWindow, TotalHardMisses: m.totalHard,
	}
	if r.N > 0 {
		r.DegradedRate = float64(r.Degraded) / float64(r.N)
	}
	r.FPS = m.fps()
	r.Performance = performanceVerdict(r.TailMs, r.FPS, r.N)
	r.Predictability = predictabilityVerdict(r.TailMs, r.MeanMs, r.N)
	return r
}

// TestMonitorMatchesThreeRings drives the monitor and the three-ring
// reference with the same frames — every length from empty to three turns
// of the ring, degraded and hard-miss flags mixed, delivery times that
// stall and step back — and requires identical Snapshot and FPS after
// every frame.
func TestMonitorMatchesThreeRings(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 17} {
		rng := stats.NewRNG(int64(capacity))
		m := NewMonitor(MonitorConfig{Window: capacity})
		ref := newThreeRingMonitor(capacity)
		at := time.Unix(0, 0)
		for i := 0; i <= 3*capacity; i++ {
			if got, want := m.Snapshot(), ref.snapshot(); got != want {
				t.Fatalf("cap %d after %d frames: snapshot\n%+v\nwant\n%+v", capacity, i, got, want)
			}
			if got, want := m.FPS(), ref.fps(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cap %d after %d frames: fps %v, want %v", capacity, i, got, want)
			}
			wall := rng.Uniform(10, 150)
			degraded := rng.Float64() < 0.3
			switch i % 5 {
			case 0: // stalled clock: same delivery time as the last frame
			case 1:
				at = at.Add(-3 * time.Millisecond)
			default:
				at = at.Add(time.Duration(rng.Uniform(10, 60) * float64(time.Millisecond)))
			}
			m.ObserveDegraded(wall, at, degraded)
			ref.observe(wall, at, degraded)
		}
	}
}

// Alloc gate (run by `make alloc-gate`): once the monitor's ring has
// wrapped it holds exactly the window's capacity in records and a frame
// allocates nothing.
func TestAllocMonitorFull(t *testing.T) {
	for _, capacity := range []int{1, 17, 1000} {
		m := NewMonitor(MonitorConfig{Window: capacity})
		at := time.Unix(0, 0)
		for i := 0; i < 2*capacity; i++ {
			m.ObserveDegraded(float64(i%120), at.Add(time.Duration(i)*time.Millisecond), i%3 == 0)
		}
		if allocs := testing.AllocsPerRun(100, func() { m.ObserveDegraded(50, at, true) }); allocs != 0 {
			t.Errorf("cap %d: a frame into a full monitor allocates %v, want 0", capacity, allocs)
		}
		if cap(m.ring) != capacity || m.w.Cap() != capacity {
			t.Errorf("cap %d: ring holds %d records, window cap %d", capacity, cap(m.ring), m.w.Cap())
		}
	}
}
