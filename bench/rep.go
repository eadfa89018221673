package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"adsim"
)

// snapshot is the process state read at the edges of the timed window.
type snapshot struct {
	at      time.Time
	mallocs uint64
	bytes   uint64
	gcs     uint32
	cpu     time.Duration
	batches int64
	calls   int64
}

func takeSnapshot(sys *system) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	b, c := sys.exec.GatherStats()
	return snapshot{
		at:      time.Now(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		batches: b,
		calls:   c,
	}
}

// window is the delivery-side bookkeeping of one repetition: it counts
// warm-up, opens the timed window when the LAST vehicle delivers its W-th
// frame, closes it after Vehicles·N further deliveries, and checks every
// delivered frame (warm-up included) for order, errors and — on the stall
// workload — the miss bit the injected stall must leave.
type window struct {
	s       spec
	sys     *system
	onClose func()
	// stalled reports whether the fault rule stalls DET on a frame; nil
	// on the clean workloads.
	stalled func(frame int) bool
	// onFrame, when set, sees every delivery after the bookkeeping (the
	// traced pass records the frame's parent span here).
	onFrame func(vehicle, frame int, wall time.Duration, timed bool)
	// sticks holds each vehicle's yardstick on a CPU-bound workload; nil
	// where the times are not scaled.
	sticks []*yardstick

	mu        sync.Mutex
	delivered []int // per vehicle, whole repetition
	inWindow  []int // per vehicle, timed window only
	dig       []*digester
	hashes    [][]frameHash
	warm      int // vehicles that have delivered W frames
	open      bool
	closed    bool
	timed     int
	walls     []float64 // ms, timed frames
	hits      int
	misses    int
	anytime   int
	tailSum   int
	failed    int // frames with Err, out of order, or missing their stall miss bit
	firstFail string
	goroutine int
	openSnap  snapshot
	closeSnap snapshot
	yardMs    []float64 // yardstick readings of the whole repetition
}

func newWindow(s spec, sys *system) *window {
	w := &window{
		s: s, sys: sys,
		delivered: make([]int, s.Vehicles),
		inWindow:  make([]int, s.Vehicles),
		dig:       make([]*digester, s.Vehicles),
		hashes:    make([][]frameHash, s.Vehicles),
		walls:     make([]float64, 0, s.Vehicles*s.N),
	}
	for v := range w.dig {
		w.dig[v] = newDigester()
		w.hashes[v] = make([]frameHash, 0, s.W+2*s.N)
	}
	if s.cpuBound() {
		w.sticks = make([]*yardstick, s.Vehicles)
		for v := range w.sticks {
			w.sticks[v] = yardstickFor(v)
		}
		w.yardMs = make([]float64, 0, s.Vehicles*(s.W+2*s.N)/yardstickEvery+s.Vehicles)
	}
	return w
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if w.firstFail == "" {
		w.firstFail = fmt.Sprintf(format, args...)
	}
}

// deliver is the system's onFrame callback: the consumer of the closed
// loop. On every yardstickEvery-th delivery of a vehicle it also reads that
// vehicle's yardstick, outside the lock, so the other vehicles' consumers
// are not held up by it.
func (w *window) deliver(v int, res adsim.RunnerResult) {
	idx, live := w.account(v, res)
	if !live || w.sticks == nil || idx%yardstickEvery != 0 {
		return
	}
	ms := w.sticks[v].read().Seconds() * 1e3
	w.mu.Lock()
	w.yardMs = append(w.yardMs, ms)
	w.mu.Unlock()
}

// account does a delivery's bookkeeping and returns the frame's position in
// its vehicle's stream, and whether the window was still taking frames.
func (w *window) account(v int, res adsim.RunnerResult) (int, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, false // fleet frames draining after the window closed
	}
	idx := w.delivered[v]
	w.delivered[v]++
	switch {
	case res.Err != nil:
		w.fail("vehicle %d frame %d: %v", v, idx, res.Err)
	case res.Frame.Index != idx:
		w.fail("vehicle %d delivered frame %d at position %d", v, res.Frame.Index, idx)
	case w.stalled != nil && w.stalled(idx) && !detMissed(&res):
		w.fail("frame %d was stalled past DET's budget but carries no DET miss bit", idx)
	}
	w.hashes[v] = append(w.hashes[v], w.dig[v].frame(&res.FrameResult))

	timed := w.open
	if timed {
		w.timed++
		w.inWindow[v]++
		ms := float64(res.Wall) / 1e6
		w.walls = append(w.walls, ms)
		if res.Err == nil && !res.Degraded.AnyMiss() && ms <= frameDeadlineMs {
			w.hits++
		}
		if res.Degraded.AnyMiss() {
			w.misses++
		}
		if res.Degraded.Anytime() {
			w.anytime++
		}
		if w.sys.tail != nil {
			w.tailSum += w.sys.tail.WindowLimit()
		}
		total := w.s.Vehicles * w.s.N
		if w.timed == total/2 {
			w.goroutine = runtime.NumGoroutine()
		}
		if w.timed == total {
			w.closeSnap = takeSnapshot(w.sys)
			w.closed = true
			if w.onClose != nil {
				w.onClose()
			}
		}
	} else if w.delivered[v] == w.s.W {
		if w.warm++; w.warm == w.s.Vehicles {
			w.open = true
			w.openSnap = takeSnapshot(w.sys)
		}
	}
	if w.onFrame != nil {
		w.onFrame(v, idx, res.Wall, timed)
	}
	return idx, true
}

// repResult is what one repetition measured. Every time in it is as the
// clock read it; TimeScale is what the end-to-end fold divides them by.
type repResult struct {
	Seed int64 `json:"seed"`
	// YardstickMs are the host-speed readings the consumer took during the
	// repetition (none where a timer sets the times, not the host), and
	// TimeScale their median over the nominal reading: 1.25 means the host
	// took a quarter longer than nominal over the same fixed work.
	YardstickMs []float64 `json:"yardstick_ms,omitempty"`
	TimeScale   float64   `json:"time_scale"`

	SetupS     float64 `json:"setup_s"`
	WallS      float64 `json:"timed_wall_s"`
	FramesPerS float64 `json:"frames_per_s"`
	P50Ms      float64 `json:"frame_ms_p50"`
	P95Ms      float64 `json:"frame_ms_p95"`
	HitShare   float64 `json:"deadline_hit_share"`
	AllocsPF   float64 `json:"allocs_per_frame"`

	Attempted int `json:"frames_attempted"`
	Delivered int `json:"frames_delivered"`
	Failed    int `json:"frames_failed"`
	// FirstFailure describes the first failed frame, for the report.
	FirstFailure string `json:"first_failure,omitempty"`
	// P95Supported is false when fewer than tailBeyondFloor samples lie
	// beyond the p95 (quick runs): the value is then not an estimate.
	P95Supported bool `json:"p95_supported"`

	// Digests is the stream digest per vehicle over the delivered frames.
	Digests []string `json:"digests"`

	// Layer counters of the same window, used by the traced pass.
	CPUMsPF      float64 `json:"cpu_ms_per_frame"`
	AllocKBPF    float64 `json:"alloc_kb_per_frame"`
	GCPerKFrame  float64 `json:"gc_per_kframe"`
	Goroutines   int     `json:"goroutines"`
	MissShare    float64 `json:"deadline_miss_share"`
	AnytimeShare float64 `json:"anytime_share"`
	TailWindow   float64 `json:"tail_window_mean"`
	Fairness     float64 `json:"fleet_fairness"`
	BatchDepth   float64 `json:"batch_depth"`
	GatherPF     float64 `json:"gather_calls_per_frame"`
	Keyframes    float64 `json:"map_keyframes"`
	RelocsPerK   float64 `json:"relocs_per_kframe"`

	hashes [][]frameHash
}

// runRep builds the system from nothing, runs it and folds the window into
// a repResult. tr is nil on the end-to-end pass.
func runRep(s spec, seed int64, tr *tracer) (repResult, error) {
	runtime.GC() // every repetition starts from a collected heap
	start := time.Now()

	var sink adsim.TelemetrySink
	var hook stageHook
	if tr != nil {
		sink, hook = tr, tr.stageStart
	}
	sys, err := s.build(seed, sink, hook)
	if err != nil {
		return repResult{}, err
	}
	w := newWindow(s, sys)
	stopped := make(chan struct{})
	if s.Vehicles > 1 {
		// Stop from outside the delivery callback: it runs on a vehicle's
		// consumer goroutine, which the fleet's drain waits for.
		w.onClose = func() {
			go func() {
				sys.stop()
				close(stopped)
			}()
		}
	}
	if s.Stall {
		probe, err := stallInjector(seed)
		if err != nil {
			return repResult{}, err
		}
		w.stalled = func(frame int) bool {
			d, _ := probe.Stage("DET", frame)
			return d > 0
		}
	}
	if tr != nil {
		tr.begin(s.Vehicles)
		w.onFrame = tr.frameDelivered
	}
	sys.run(w.deliver)
	if w.onClose != nil && w.closed {
		<-stopped
	}
	for _, p := range sys.pipelines {
		p.Drain()
	}
	return w.result(start), nil
}

// result folds the finished window into the repetition's metrics.
func (w *window) result(start time.Time) repResult {
	s := w.s
	attempted := s.Vehicles * s.N
	r := repResult{
		YardstickMs:  w.yardMs,
		TimeScale:    hostSlowness(w.yardMs),
		Attempted:    attempted,
		Delivered:    w.timed,
		Failed:       w.failed + attempted - w.timed,
		FirstFailure: w.firstFail,
		Goroutines:   w.goroutine,
		hashes:       w.hashes,
	}
	if w.timed < attempted && r.FirstFailure == "" {
		r.FirstFailure = fmt.Sprintf("%d of %d timed frames never delivered", attempted-w.timed, attempted)
	}
	for v := range w.hashes {
		d := streamDigest(w.hashes[v])
		r.Digests = append(r.Digests, fmt.Sprintf("%x", d[:8]))
	}
	if !w.closed {
		return r // the window never filled: no timing to report
	}
	n := float64(w.timed)
	a, b := w.openSnap, w.closeSnap
	r.SetupS = a.at.Sub(start).Seconds()
	r.WallS = b.at.Sub(a.at).Seconds()
	r.FramesPerS = n / r.WallS
	r.P50Ms = median(w.walls)
	r.P95Ms, r.P95Supported = percentile(w.walls, 0.95)
	r.HitShare = float64(w.hits) / float64(attempted)
	r.AllocsPF = float64(b.mallocs-a.mallocs) / n

	r.CPUMsPF = float64(b.cpu-a.cpu) / 1e6 / n
	r.AllocKBPF = float64(b.bytes-a.bytes) / 1024 / n
	r.GCPerKFrame = float64(b.gcs-a.gcs) / n * 1000
	r.MissShare = float64(w.misses) / n
	r.AnytimeShare = float64(w.anytime) / n
	if w.sys.tail != nil {
		r.TailWindow = float64(w.tailSum) / n
	}
	lo, hi := w.inWindow[0], w.inWindow[0]
	for _, c := range w.inWindow {
		lo, hi = min(lo, c), max(hi, c)
	}
	if hi > 0 {
		r.Fairness = float64(lo) / float64(hi)
	}
	if batches := b.batches - a.batches; batches > 0 {
		r.BatchDepth = float64(b.calls-a.calls) / float64(batches)
		r.GatherPF = float64(b.calls-a.calls) / n
	}
	relocs := 0
	for _, p := range w.sys.pipelines {
		loc := p.Localizer()
		r.Keyframes += float64(loc.Store().Len())
		relocs += loc.Relocalizations()
	}
	r.Keyframes /= float64(len(w.sys.pipelines))
	total := 0
	for _, c := range w.delivered {
		total += c
	}
	r.RelocsPerK = float64(relocs) / float64(total) * 1000
	return r
}

// checkOutputs compares a repetition's per-frame hashes with the sequential
// reference for the same seed, adding every mismatch to its failed count.
// ref is nil on the one workload whose outputs depend on wall-clock misses.
func (r *repResult) checkOutputs(ref [][]frameHash) {
	if ref == nil {
		return
	}
	note := func(format string, args ...any) {
		r.Failed++
		if r.FirstFailure == "" {
			r.FirstFailure = fmt.Sprintf(format, args...)
		}
	}
	for v, got := range r.hashes {
		for i, h := range got {
			if i < len(ref[v]) && h != ref[v][i] {
				note("vehicle %d frame %d differs from the sequential Step reference", v, i)
			}
		}
		if len(got) < len(ref[v]) {
			note("vehicle %d delivered %d frames, fewer than the %d checked against the reference", v, len(got), len(ref[v]))
		}
	}
}

// repSeed derives repetition rep's scene seed from the run's seed. Every
// repetition drives a different scene: how many objects a scene shows (and
// so how much TRA work and how many allocations a frame costs) varies by a
// few percent from seed to seed, and a run that measured one scene K times
// would carry that scene's luck into every metric. Runs with different
// seeds draw disjoint panels.
func repSeed(seed int64, rep int) int64 { return seed*1000 + int64(rep) }

// measure runs one checked repetition: the Step reference for the
// repetition's seed is built first, outside all timing.
func measure(s spec, seed int64, tr *tracer) (repResult, error) {
	ref, err := s.reference(seed)
	if err != nil {
		return repResult{}, err
	}
	r, err := runRep(s, seed, tr)
	if err != nil {
		return repResult{}, err
	}
	r.Seed = seed
	r.checkOutputs(ref)
	return r, nil
}

// hostFramesPerS is the repetition's throughput at nominal host speed.
func (r repResult) hostFramesPerS() float64 { return r.FramesPerS * r.TimeScale }
