package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"adsim"
	"adsim/internal/detect"
	"adsim/internal/dnn"
	"adsim/internal/img"
	"adsim/internal/pipeline"
	"adsim/internal/scene"
)

func TestPercentileSamplesBeyondRule(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // unsorted on purpose: 200..1
	}
	v, ok := percentile(xs, 0.95)
	if v != 190 || !ok {
		t.Fatalf("p95 of 1..200 = %v supported=%v, want 190 with exactly %d samples beyond", v, ok, tailBeyondFloor)
	}
	if xs[0] != 200 {
		t.Fatal("percentile reordered its input")
	}
	if _, ok := percentile(xs[:199], 0.95); ok {
		t.Fatal("p95 of 199 samples has 9 beyond it and must be flagged unsupported")
	}
	if v, ok := percentile(xs[:30], 0.95); v != 199 || ok {
		t.Fatalf("p95 of 30 samples = %v supported=%v, want the value anyway, flagged", v, ok)
	}
	if v, _ := percentile(nil, 0.95); !math.IsNaN(v) {
		t.Fatalf("p95 of nothing = %v, want NaN", v)
	}
}

func TestMedianOverReps(t *testing.T) {
	e := estimateOf([]float64{12, 9, 30, 10, 11}) // one repetition hit a host hiccup
	if e.Median != 11 || e.Min != 9 || e.Max != 30 {
		t.Fatalf("estimate %+v, want median 11 in [9, 30]", e)
	}
	if got := e.relSpread(); math.Abs(got-21.0/11) > 1e-12 {
		t.Fatalf("spread %v, want 21/11", got)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even-count median %v, want 2.5", m)
	}
	if e := estimateOf([]float64{7}); e.Median != 7 || e.relSpread() != 0 {
		t.Fatalf("single reading %+v", e)
	}
}

func TestHostSlownessScalesTimesNotCounts(t *testing.T) {
	nominal := yardstickNominal.Seconds() * 1e3
	if got := hostSlowness([]float64{nominal, nominal, nominal}); got != 1 {
		t.Fatalf("a host at nominal speed has slowness %v, want 1", got)
	}
	// The median: one reading that overlapped a collection does not count.
	if got := hostSlowness([]float64{1.25 * nominal, 9 * nominal, 1.25 * nominal}); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("slowness %v, want the median reading over nominal, 1.25", got)
	}
	if got := hostSlowness(nil); got != 1 {
		t.Fatalf("a repetition without readings is scaled by %v, want 1", got)
	}
	// A repetition on a host a quarter slower than nominal: every time is
	// brought back to nominal speed, counts and shares are left alone.
	slow := repResult{TimeScale: 1.25, FramesPerS: 80, P50Ms: 12.5, P95Ms: 25, SetupS: 0.5, HitShare: 0.9, AllocsPF: 640}
	e := foldEndToEnd([]repResult{slow}, 30)
	for name, want := range map[string]float64{
		"frames_per_s": 100, "frame_ms_p50": 10, "frame_ms_p95": 20, "setup_s": 0.4,
		"deadline_hit_share": 0.9, "allocs_per_frame": 640, "peak_rss_mb": 30,
	} {
		if got := e[name].Median; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// The consumer reads the yardstick on every yardstickEvery-th delivery of a
// CPU-bound workload, warm-up included, and never on the timer-bound one.
func TestWindowReadsYardstickOnStride(t *testing.T) {
	run := func(s spec) repResult {
		w := newWindow(s, &system{exec: dnn.NewExecutor(1)})
		for f := 0; f < s.W+s.N; f++ {
			w.deliver(0, result(f, time.Millisecond, 0))
		}
		return w.result(time.Now())
	}
	r := run(spec{Name: "t", W: 4, N: 2*yardstickEvery + 1, Vehicles: 1})
	if len(r.YardstickMs) != 3 { // frames 0, 8 and 16 of 21
		t.Fatalf("%d yardstick readings over %d deliveries, want 3", len(r.YardstickMs), 4+2*yardstickEvery+1)
	}
	if r.TimeScale != hostSlowness(r.YardstickMs) || r.TimeScale < 0.1 || r.TimeScale > 50 {
		t.Fatalf("time scale %v from readings %v", r.TimeScale, r.YardstickMs)
	}
	stall := run(spec{Name: "t", W: 4, N: 20, Vehicles: 1, Stall: true})
	if len(stall.YardstickMs) != 0 || stall.TimeScale != 1 {
		t.Fatalf("the timer-bound workload took %d readings and scales by %v, want none and 1", len(stall.YardstickMs), stall.TimeScale)
	}
	for _, s := range workloads {
		if s.cpuBound() == s.Stall {
			t.Errorf("%s: only the timer-bound stall workload is left unscaled", s.Name)
		}
	}
}

// The yardstick must be the same work every time it is read, or the ratio
// of two readings says nothing about the host; and it runs inside the
// allocs_per_frame window.
func TestYardstickDoesFixedWork(t *testing.T) {
	y := newYardstick(0)
	var du [2]uint64
	for i := range du {
		before := y.sinkU
		if d := y.read(); d < yardstickNominal/4 || d > yardstickNominal*20 {
			t.Errorf("a reading took %v: nominal is %v, so slowness would be meaningless on this host", d, yardstickNominal)
		}
		du[i] = y.sinkU - before
	}
	if du[0] != du[1] || du[0] == 0 {
		t.Fatalf("two readings counted %d and %d: the work is not fixed", du[0], du[1])
	}
	if allocs := testing.AllocsPerRun(5, func() { y.read() }); allocs != 0 {
		t.Errorf("a yardstick reading allocates %v times", allocs)
	}
	if yardstickFor(2) != yardstickFor(2) || yardstickFor(0) == yardstickFor(1) {
		t.Error("each vehicle keeps one yardstick of its own for the whole process")
	}
}

func TestWorseningFollowsDirection(t *testing.T) {
	if w := worsening(100, 90, "higher"); math.Abs(w-0.10) > 1e-12 {
		t.Fatalf("throughput 100→90 worsens by %v, want 0.10", w)
	}
	if w := worsening(10, 11, "lower"); math.Abs(w-0.10) > 1e-12 {
		t.Fatalf("latency 10→11 worsens by %v, want 0.10", w)
	}
	if w := worsening(10, 9, "lower"); w >= 0 {
		t.Fatalf("latency 10→9 is an improvement, got %v", w)
	}
}

// result fabricates a delivered frame.
func result(index int, wall time.Duration, mask pipeline.DegradedMask) adsim.RunnerResult {
	var r adsim.RunnerResult
	r.Frame.Index = index
	r.Wall = wall
	r.Degraded = mask
	return r
}

func TestFleetWindowOpensOnLastVehicleAndClosesOnCount(t *testing.T) {
	s := spec{Name: "t", W: 2, N: 3, Vehicles: 2}
	w := newWindow(s, &system{exec: dnn.NewExecutor(1)})
	closed := 0
	w.onClose = func() { closed++ }
	next := []int{0, 0}
	deliver := func(v int, wall time.Duration) {
		w.deliver(v, result(next[v], wall, 0))
		next[v]++
	}
	// Vehicle 0 races ahead: its frames past W are NOT timed until vehicle 1
	// has also delivered W frames.
	for i := 0; i < 4; i++ {
		deliver(0, time.Millisecond)
	}
	if w.open || w.timed != 0 {
		t.Fatalf("window opened before the last vehicle warmed up (open=%v timed=%d)", w.open, w.timed)
	}
	deliver(1, time.Millisecond)
	deliver(1, time.Millisecond) // vehicle 1's W-th frame opens the window
	if !w.open || w.timed != 0 {
		t.Fatalf("window should open exactly on the last vehicle's W-th frame (open=%v timed=%d)", w.open, w.timed)
	}
	// Vehicles·N = 6 timed deliveries, one of them over the deadline; the
	// window counts deliveries fleet-wide, not per vehicle.
	deliver(1, 150*time.Millisecond)
	for _, v := range []int{1, 1, 1, 0} {
		deliver(v, 5*time.Millisecond)
	}
	if w.closed || closed != 0 {
		t.Fatal("window closed early")
	}
	deliver(0, 5*time.Millisecond)
	if !w.closed || closed != 1 {
		t.Fatalf("window should close after %d timed deliveries (closed=%v onClose=%d)", s.Vehicles*s.N, w.closed, closed)
	}
	deliver(1, 5*time.Millisecond) // draining after close: ignored
	if w.timed != 6 || w.hits != 5 {
		t.Fatalf("timed %d hits %d, want 6 and 5 (one frame took 150 ms)", w.timed, w.hits)
	}
	r := w.result(w.openSnap.at.Add(-time.Second))
	if r.Attempted != 6 || r.Delivered != 6 || r.Failed != 0 {
		t.Fatalf("counts %d/%d/%d, want 6/6/0", r.Attempted, r.Delivered, r.Failed)
	}
	if math.Abs(r.HitShare-5.0/6) > 1e-12 {
		t.Fatalf("hit share %v, want 5/6", r.HitShare)
	}
	if r.SetupS < 1 {
		t.Fatalf("setup %v s, want ≥ 1 (repetition start → window open)", r.SetupS)
	}
	if r.Fairness != 0.5 { // vehicle 0 delivered 2 timed frames, vehicle 1 four
		t.Fatalf("fairness %v, want 0.5", r.Fairness)
	}
}

func TestWindowCountsMissingAndDisorderedFramesAsFailed(t *testing.T) {
	s := spec{Name: "t", W: 1, N: 4, Vehicles: 1}
	w := newWindow(s, &system{exec: dnn.NewExecutor(1)})
	w.deliver(0, result(0, time.Millisecond, 0))
	w.deliver(0, result(2, time.Millisecond, 0)) // frame 1 skipped: out of order
	bad := result(2, time.Millisecond, 0)
	bad.Err = errors.New("boom")
	w.deliver(0, bad)
	r := w.result(time.Now())
	// 2 failed deliveries + 2 timed frames that never arrived; a failed or
	// missing frame is a deadline miss too.
	if r.Attempted != 4 || r.Delivered != 2 || r.Failed != 4 {
		t.Fatalf("counts %d/%d/%d, want 4/2/4", r.Attempted, r.Delivered, r.Failed)
	}
	if !strings.Contains(r.FirstFailure, "position 1") {
		t.Fatalf("first failure %q should name the disordered frame", r.FirstFailure)
	}
}

func TestStallAccountingRequiresDetMissBit(t *testing.T) {
	probe, err := stallInjector(1)
	if err != nil {
		t.Fatal(err)
	}
	stalled := func(frame int) bool { d, _ := probe.Stage("DET", frame); return d > 0 }
	// every=7:burst=3 stalls frames 0,1,2 of each period of 7.
	want := map[int]bool{0: true, 1: true, 2: true, 3: false, 6: false, 7: true, 9: true, 10: false}
	for f, st := range want {
		if stalled(f) != st {
			t.Fatalf("frame %d stalled=%v, want %v", f, stalled(f), st)
		}
	}
	if d, _ := probe.Stage("DET", 0); d != 60*time.Millisecond {
		t.Fatalf("stall is %v, want 60ms (well clear of DET's 35 ms budget)", d)
	}
	miss := pipeline.DegradedMask(1) << uint(pipeline.StageDet)
	run := func(mask func(frame int) pipeline.DegradedMask) repResult {
		s := spec{Name: "t", W: 1, N: 13, Vehicles: 1, Stall: true}
		w := newWindow(s, &system{exec: dnn.NewExecutor(1)})
		w.stalled = stalled
		for f := 0; f < 14; f++ {
			w.deliver(0, result(f, 20*time.Millisecond, mask(f)))
		}
		return w.result(time.Now())
	}
	honest := run(func(f int) pipeline.DegradedMask {
		if stalled(f) {
			return miss
		}
		return 0
	})
	if honest.Failed != 0 {
		t.Fatalf("honest stream failed %d frames: %s", honest.Failed, honest.FirstFailure)
	}
	// Frames 1,2,7,8,9 of the timed 1..13 are stalled ⇒ 5 misses, 8 hits.
	if math.Abs(honest.HitShare-8.0/13) > 1e-12 || math.Abs(honest.MissShare-5.0/13) > 1e-12 {
		t.Fatalf("hit share %v miss share %v, want 8/13 and 5/13", honest.HitShare, honest.MissShare)
	}
	cheat := run(func(int) pipeline.DegradedMask { return 0 })
	if cheat.Failed != 6 { // frames 0,1,2,7,8,9 lack the bit (frame 0 is warm-up, still checked)
		t.Fatalf("stream without miss bits failed %d frames, want 6", cheat.Failed)
	}
}

func TestSpanTreeSelfTime(t *testing.T) {
	spans := []span{
		{Name: "DET", Frame: 7, Start: 100, End: 200, Queue: 5, Parent: -1},
		{Name: "DET/dnn", Frame: 7, Start: 120, End: 180, Parent: -1},
		// The tracker pool's sub-spans are summed per-tracker work: longer
		// than the stage and overlapping each other.
		{Name: "TRA", Frame: 7, Start: 200, End: 300, Parent: -1},
		{Name: "TRA/dnn", Frame: 7, Start: -100, End: 290, Parent: -1},
		{Name: "TRA/other", Frame: 7, Start: 250, End: 295, Parent: -1},
		{Name: frameSpanName, Frame: 7, Start: 90, End: 320, Timed: true, Parent: -1},
		{Name: "DET", Frame: 8, Start: 300, End: 350, Parent: -1}, // frame 8 has no root
	}
	tr := linkSpans(spans)
	if tr.spans[0].Parent != 5 || tr.spans[1].Parent != 0 || tr.spans[3].Parent != 2 {
		t.Fatalf("parents %d %d %d, want stage→frame and kernel→stage", tr.spans[0].Parent, tr.spans[1].Parent, tr.spans[3].Parent)
	}
	if tr.spans[6].Parent != -1 {
		t.Fatal("a span of a frame without a root must stay a root")
	}
	if !tr.spans[1].Timed || tr.spans[6].Timed {
		t.Fatal("the timed flag must flow from a frame's root to its descendants only")
	}
	for i, want := range map[int]int64{
		0: 40, // 100 − the 60 its kernel covers
		2: 5,  // children clipped to [200,300] and merged cover [200,295]
		5: 30, // 230 − DET's 100 − TRA's 100
		1: 60, // a leaf keeps its whole duration
		6: 50,
	} {
		if got := tr.selfNs(i); got != want {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, tr.spans[i].Name, got, want)
		}
	}
	for i := range tr.spans {
		if tr.selfNs(i) < 0 {
			t.Errorf("span %d has negative self time", i)
		}
	}
}

func TestTraceCheckWantsOneSpanPerStage(t *testing.T) {
	var spans []span
	add := func(name string, frame int) {
		spans = append(spans, span{Name: name, Frame: frame, Start: 10, End: 20, Parent: -1})
	}
	for frame := 0; frame < 2; frame++ {
		for _, st := range stageNames {
			add(st, frame)
		}
		spans = append(spans, span{Name: frameSpanName, Frame: frame, Start: 0, End: 30, Timed: true, Parent: -1})
	}
	if err := linkSpans(append([]span(nil), spans...)).check(2); err != nil {
		t.Fatalf("well-formed trace rejected: %v", err)
	}
	add("LOC", 1)
	if err := linkSpans(spans).check(2); err == nil || !strings.Contains(err.Error(), "LOC") {
		t.Fatalf("duplicate LOC span not caught: %v", err)
	}
}

func TestFrameDigestIgnoresTimingFields(t *testing.T) {
	var res adsim.FrameResult
	res.Frame = scene.Frame{Index: 3}
	res.Detections = []detect.Detection{{Box: img.Rect{X0: 1, Y0: 2, X1: 3, Y1: 4}, Class: scene.Vehicle, Confidence: 0.9}}
	res.Pose.Pose.Z = 12.5
	res.Plan.Speed = 27
	d := newDigester()
	base := d.frame(&res)

	timed := res
	timed.Timing.Det = 5 * time.Millisecond
	timed.Timing.E2E = 9 * time.Millisecond
	timed.Degraded = 1
	if d.frame(&timed) != base {
		t.Fatal("digest moved with Timing/Degraded: it must pin outputs, not schedule")
	}
	for name, mutate := range map[string]func(*adsim.FrameResult){
		"index": func(r *adsim.FrameResult) { r.Frame.Index++ },
		"detection": func(r *adsim.FrameResult) {
			r.Detections = []detect.Detection{{Box: img.Rect{X0: 1, Y0: 2, X1: 3, Y1: 5}}}
		},
		"pose":       func(r *adsim.FrameResult) { r.Pose.Pose.Z += 1e-9 },
		"pose flags": func(r *adsim.FrameResult) { r.Pose.Stale = true },
		"plan":       func(r *adsim.FrameResult) { r.Plan.Decision++ },
		"command":    func(r *adsim.FrameResult) { r.Command.Accel = -1 },
	} {
		changed := res
		mutate(&changed)
		if d.frame(&changed) == base {
			t.Errorf("digest did not move when the %s changed", name)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { d.frame(&res) }); allocs != 0 {
		t.Errorf("digesting a frame allocates %v times; it runs inside the allocs_per_frame window", allocs)
	}
}

func TestCheckOutputsAgainstReference(t *testing.T) {
	h := func(b byte) frameHash { return frameHash{b} }
	ref := [][]frameHash{{h(1), h(2), h(3)}}
	good := repResult{hashes: [][]frameHash{{h(1), h(2), h(3), h(9)}}} // frames past the reference are unchecked
	good.checkOutputs(ref)
	if good.Failed != 0 {
		t.Fatalf("matching stream failed %d frames: %s", good.Failed, good.FirstFailure)
	}
	bad := repResult{hashes: [][]frameHash{{h(1), h(7)}}}
	bad.checkOutputs(ref)
	if bad.Failed != 2 { // one wrong frame, and the stream is shorter than the reference
		t.Fatalf("failed %d, want 2 (%s)", bad.Failed, bad.FirstFailure)
	}
	free := repResult{hashes: [][]frameHash{{h(5)}}}
	free.checkOutputs(nil)
	if free.Failed != 0 {
		t.Fatal("a workload without a reference must not be checked against one")
	}
}

func TestRepSeedsAreDisjointAcrossRuns(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(1); seed <= 50; seed++ {
		for rep := 0; rep < 20; rep++ {
			rs := repSeed(seed, rep)
			if seen[rs] {
				t.Fatalf("seed %d rep %d reuses scene seed %d", seed, rep, rs)
			}
			seen[rs] = true
		}
	}
}

func TestTraceFlagTakesSeparateValue(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want traceMode
	}{{"0", traceOff}, {"false", traceOff}, {"1", traceOnly}, {"true", traceOnly}} {
		var m traceMode
		if err := m.Set(tc.in); err != nil || m != tc.want {
			t.Errorf("Set(%q) = %v, %v", tc.in, m, err)
		}
	}
	var m traceMode
	if m.Set("maybe") == nil {
		t.Error("Set accepted a value that is neither 0 nor 1")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the driver reads,
// in step with the tables the program prints from.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program (or their reasons differ)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end-to-end", b.EndToEnd, endToEnd)
	same("per-layer", b.PerLayer, perLayer)
	if len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(b.PerLayer))
	}
	setup := false
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end must carry setup_s in s, lower is better")
	}
}

// TestQuickSmoke runs every workload end to end at smoke size, and one of
// them through the traced pass, so bit-rot in the benchmark shows up in
// `go test` without paying for a measurement.
func TestQuickSmoke(t *testing.T) {
	if runtime.NumCPU() < workers {
		t.Skipf("the benchmark refuses to run on %d CPU(s)", runtime.NumCPU())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0)) // run() pins it
	smoke := func(args ...string) resultLine {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("bench %v exited %d: %s", args, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line resultLine
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("last line of bench %v is not the result object: %v", args, err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Fatalf("bench %v: correct=%v attempted=%d failed=%d", args, line.Correct, line.Attempted, line.Failed)
		}
		return line
	}
	for _, s := range workloads {
		line := smoke("--workload", s.Name, "--seed", "3", "--trace", "0", "-quick")
		if len(line.Metrics) != len(endToEnd) {
			t.Fatalf("%s: %d metrics with --trace 0, want the %d end-to-end ones", s.Name, len(line.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			v, ok := line.Metrics[m.Name]
			// A slow enough host (or -race) misses every deadline, so the
			// hit share alone may legitimately read 0.
			positive := v.Value > 0 || (m.Name == "deadline_hit_share" && v.Value == 0)
			if !ok || v.Unit != m.Unit || !positive {
				t.Errorf("%s/%s = %+v, want a positive value in %s", s.Name, m.Name, v, m.Unit)
			}
		}
	}
	line := smoke("--workload", "solo_pipelined", "--seed", "3", "--trace", "1", "-quick")
	if len(line.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics with --trace 1, want the %d per-layer ones", len(line.Metrics), len(perLayer))
	}
	if v := line.Metrics["pipeline.tra.exec_ms"].Value; !(v > 0) {
		t.Errorf("pipeline.tra.exec_ms = %v: the tracer saw no TRA spans", v)
	}
	trace, err := os.ReadFile("out/solo_pipelined.trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var first traceLine
	if err := json.Unmarshal(trace[:bytes.IndexByte(trace, '\n')], &first); err != nil || first.Name == "" {
		t.Fatalf("trace file's first line %+v: %v", first, err)
	}
}
