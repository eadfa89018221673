package pipeline

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"adsim/internal/faultinject"
	"adsim/internal/scene"
	"adsim/internal/slam"
	"adsim/internal/testutil"
)

// This file is the chaos harness: seeded fault scenarios driven through
// BOTH executors, asserting they deliver bitwise-identical results and
// DegradedMask sequences, plus the deadline acceptance tests (a frame whose
// DET stage stalls past budget waits exactly the budget on it and delivers
// in TRA-only mode, its late attempt pending until drained), the golden-trace
// regression diff, and the one real-clock smoke per executor.
//
// Everything but that smoke runs under DeadlinePolicy.Virtual: only injected
// delays are charged against budgets and no timers race, so the miss/degrade
// sequence is a pure function of (scenario, seed) — identical across
// executors, schedulers and machines — while a missed stage still abandons a
// real attempt that the shipped pending/drain path must wait out.

// chaosRun is one executor's delivered sequence under a scenario.
type chaosRun struct {
	results []FrameResult
	masks   []DegradedMask
	errs    []string
}

// chaosConfig builds a virtual-enforcement config wired to a fresh
// injector for the scenario spec.
func chaosConfig(t *testing.T, kind scene.Kind, spec string, seed int64) Config {
	t.Helper()
	cfg := fastNativeConfig(kind)
	cfg.Deadline = DeadlinePolicy{Enforce: true, Virtual: true}
	inj, err := faultinject.New(faultinject.MustParse(spec, seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Inject = inj.Stage
	return cfg
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// runChaosStep drives the sequential executor for frames steps, collecting
// results, masks and error strings (injected frame drops and stage errors
// are expected, not fatal).
func runChaosStep(t *testing.T, cfg Config, frames int) chaosRun {
	t.Helper()
	p, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var run chaosRun
	for i := 0; i < frames; i++ {
		res, err := p.Step()
		run.results = append(run.results, stripSchedule(res))
		run.masks = append(run.masks, res.Degraded)
		run.errs = append(run.errs, errString(err))
	}
	p.Drain()
	return run
}

// runChaosRunner drives the pipelined executor for the same scenario.
func runChaosRunner(t *testing.T, cfg Config, frames, inflight int) chaosRun {
	t.Helper()
	p, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunnerOptions{InFlight: inflight})
	if err != nil {
		t.Fatal(err)
	}
	var run chaosRun
	for res := range r.Run(frames) {
		run.results = append(run.results, stripSchedule(res.FrameResult))
		run.masks = append(run.masks, res.Degraded)
		run.errs = append(run.errs, errString(res.Err))
	}
	return run
}

// requireIdenticalRuns asserts two executors delivered bitwise-identical
// result + DegradedMask + error sequences.
func requireIdenticalRuns(t *testing.T, seq, pipe chaosRun) {
	t.Helper()
	if len(seq.results) != len(pipe.results) {
		t.Fatalf("Step delivered %d frames, Runner %d", len(seq.results), len(pipe.results))
	}
	for i := range seq.results {
		if seq.masks[i] != pipe.masks[i] {
			t.Errorf("frame %d: Step mask %v, Runner mask %v", i, seq.masks[i], pipe.masks[i])
		}
		if seq.errs[i] != pipe.errs[i] {
			t.Errorf("frame %d: Step err %q, Runner err %q", i, seq.errs[i], pipe.errs[i])
		}
		if !reflect.DeepEqual(seq.results[i], pipe.results[i]) {
			t.Errorf("frame %d: results diverge between executors", i)
		}
	}
}

// TestChaosStepRunnerEquivalence is the chaos suite's core contract: under
// a seeded fault scenario (slow DET, bursty LOC stalls, planner faults,
// dropped frames, probabilistic mixes) the sequential Step loop and the
// pipelined Runner deliver identical result + DegradedMask sequences.
// Run under -race this also exercises the degraded fallback paths
// concurrently with healthy frames in flight.
func TestChaosStepRunnerEquivalence(t *testing.T) {
	const frames = 24
	cases := []struct {
		name string
		kind scene.Kind
		spec string
		seed int64
		// check runs scenario-specific semantic assertions on the (already
		// equivalence-checked) sequential run.
		check func(t *testing.T, run chaosRun)
	}{
		{
			name: "slow-det",
			kind: scene.Urban,
			spec: "DET:delay=50ms:every=3",
			seed: 1,
			check: func(t *testing.T, run chaosRun) {
				for i, m := range run.masks {
					wantDet := i%3 == 0
					if m.Has(StageDet) != wantDet {
						t.Errorf("frame %d: DET degraded=%v, want %v", i, m.Has(StageDet), wantDet)
					}
					if wantDet && run.results[i].Detections != nil {
						t.Errorf("frame %d: degraded DET frame still carries detections", i)
					}
				}
			},
		},
		{
			name: "bursty-loc",
			kind: scene.Urban,
			spec: "LOC:delay=80ms:every=7:burst=3",
			seed: 2,
			check: func(t *testing.T, run chaosRun) {
				for i, m := range run.masks {
					wantLoc := i%7 < 3
					if m.Has(StageLoc) != wantLoc {
						t.Errorf("frame %d: LOC degraded=%v, want %v", i, m.Has(StageLoc), wantLoc)
					}
					pose := run.results[i].Pose
					if wantLoc && (!pose.Stale || pose.Tracked) {
						t.Errorf("frame %d: degraded LOC frame pose = %+v, want stale untracked", i, pose)
					}
					if !wantLoc && pose.Stale {
						t.Errorf("frame %d: clean LOC frame flagged stale", i)
					}
				}
			},
		},
		{
			name: "plan-stall",
			kind: scene.Highway,
			spec: "MOTPLAN:delay=40ms:every=5,FUSION:delay=20ms:every=4",
			seed: 3,
			check: func(t *testing.T, run chaosRun) {
				for i, m := range run.masks {
					if m.Has(StageMotplan) && i > 0 && !m.Has(StageFusion) {
						// Previous-plan hold: the degraded frame replays the
						// last committed plan.
						prev := run.results[i-1].Plan
						if !reflect.DeepEqual(run.results[i].Plan, prev) {
							t.Errorf("frame %d: MOTPLAN hold does not match previous plan", i)
						}
					}
				}
			},
		},
		{
			name: "dropped-frames",
			kind: scene.Urban,
			spec: "SRC:drop:every=6",
			seed: 4,
			check: func(t *testing.T, run chaosRun) {
				for i, e := range run.errs {
					wantDrop := i%6 == 0
					if wantDrop == (e == "") {
						t.Errorf("frame %d: err=%q, want dropped=%v", i, e, wantDrop)
					}
					if wantDrop && !strings.Contains(e, "injected fault") {
						t.Errorf("frame %d: drop error %q missing sentinel", i, e)
					}
				}
			},
		},
		{
			name: "mixed-probabilistic",
			kind: scene.Urban,
			spec: "DET:delay=50ms:every=4,LOC:delay=90ms:p=0.4,MOTPLAN:err:frames=9-10,SRC:drop:every=13",
			seed: 5,
			check: func(t *testing.T, run chaosRun) {
				degraded := 0
				for _, m := range run.masks {
					if m.Any() {
						degraded++
					}
				}
				if degraded == 0 {
					t.Error("mixed scenario produced no degraded frames")
				}
				for _, i := range []int{9, 10} {
					if !strings.Contains(run.errs[i], "MOTPLAN fault") {
						t.Errorf("frame %d: err=%q, want MOTPLAN fault", i, run.errs[i])
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := runChaosStep(t, chaosConfig(t, tc.kind, tc.spec, tc.seed), frames)
			pipe := runChaosRunner(t, chaosConfig(t, tc.kind, tc.spec, tc.seed), frames, 4)
			requireIdenticalRuns(t, seq, pipe)
			if tc.check != nil {
				tc.check(t, seq)
			}
		})
	}
}

// TestChaosFlakyShardStoreIO drives the shard store's I/O failure path: the
// localizer's prior map lives in an on-disk shard store with every other
// tile file deleted, and a cache budget small enough to force reloads. Both
// executors must see the identical failure sequence (the store is read from
// exactly one stage) and deliver identical poses, while the store records
// the failures as transient degradation. A DET delay rule rides along.
func TestChaosFlakyShardStoreIO(t *testing.T) {
	base := fastNativeConfig(scene.Urban)
	base.SurveyFrames = 0 // the shard store IS the survey

	// Survey the same scenario into a monolithic map, then shard it.
	gen, err := scene.New(base.Scene)
	if err != nil {
		t.Fatal(err)
	}
	surveyEng, err := slam.NewEngine(base.SLAM, slam.NewPriorMap())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		f := gen.Step()
		surveyEng.Survey(f.Image, f.EgoPose)
	}
	dir := t.TempDir()
	idx, err := slam.WriteShards(surveyEng.Map(), dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(idx.Tiles); i += 2 {
		if err := os.Remove(filepath.Join(dir, idx.Tiles[i].File)); err != nil {
			t.Fatal(err)
		}
	}

	const spec = "DET:delay=50ms:every=5"
	const frames = 20
	var stores []*slam.ShardStore
	mkCfg := func() Config {
		store, err := slam.OpenShardStore(dir, slam.ShardStoreOptions{
			CacheBudget: 1, // floor of one resident tile: every boundary crossing reloads
		})
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, store)
		cfg := chaosConfig(t, scene.Urban, spec, 11)
		cfg.SurveyFrames = 0
		cfg.MapStore = store
		return cfg
	}

	seq := runChaosStep(t, mkCfg(), frames)
	pipe := runChaosRunner(t, mkCfg(), frames, 4)
	requireIdenticalRuns(t, seq, pipe)

	for i, store := range stores {
		cs := store.CacheStats()
		if cs.IOErrors == 0 {
			t.Errorf("store %d saw no I/O errors (misses=%d)", i, cs.Misses)
		}
		if err := store.Err(); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("store %d Err = %v, want a missing-shard record", i, err)
		}
	}
	// Missing shards degrade localization coverage; they must not kill frames.
	for i, e := range seq.errs {
		if e != "" {
			t.Errorf("frame %d errored under missing shards: %s", i, e)
		}
	}
}

// anytimeChaosConfig is chaosConfig with the deterministic anytime exit
// armed: injected DET delays in (budget/2, budget] exit early instead of
// riding the frame, delays beyond the budget still miss outright.
func anytimeChaosConfig(t *testing.T, kind scene.Kind, spec string, seed int64) Config {
	t.Helper()
	cfg := chaosConfig(t, kind, spec, seed)
	cfg.Deadline.Anytime = true
	return cfg
}

// TestChaosAnytimeEquivalence extends the chaos contract to the anytime
// exit: under Virtual+Anytime enforcement a DET stall past half the budget
// (35ms default) commits a coarser on-time detection set flagged with the
// mask's Anytime bit, a stall past the full budget is still a full miss,
// and both executors deliver the identical sequence. The two injected
// cadences overlap at frames % 15 == 0, where the longer delay wins and
// the frame must miss, not exit anytime.
func TestChaosAnytimeEquivalence(t *testing.T) {
	const (
		frames = 24
		spec   = "DET:delay=20ms:every=3,DET:delay=50ms:every=5"
		seed   = 7
	)
	seq := runChaosStep(t, anytimeChaosConfig(t, scene.Urban, spec, seed), frames)
	pipe := runChaosRunner(t, anytimeChaosConfig(t, scene.Urban, spec, seed), frames, 4)
	requireIdenticalRuns(t, seq, pipe)

	// The same scenario without faults: full detection sets per frame.
	clean := runChaosStep(t, anytimeChaosConfig(t, scene.Urban, "DET:delay=1ms:every=1000000", seed), frames)

	for i := range seq.masks {
		m := seq.masks[i]
		dets := seq.results[i].Detections
		switch {
		case i%5 == 0: // 50ms > 35ms budget: full miss, never anytime
			if !m.Has(StageDet) || m.Anytime() {
				t.Errorf("frame %d mask = %v, want a plain DET miss", i, m)
			}
			if dets != nil {
				t.Errorf("frame %d: missed DET frame carries detections", i)
			}
		case i%3 == 0: // 20ms in (17.5ms, 35ms]: anytime exit
			if !m.Anytime() || m.AnyMiss() {
				t.Errorf("frame %d mask = %v, want anytime without a miss", i, m)
			}
			if !m.Any() {
				t.Errorf("frame %d: anytime frame not counted as degraded", i)
			}
			full := len(clean.results[i].Detections)
			if full > 0 && (len(dets) == 0 || len(dets) > full) {
				t.Errorf("frame %d: anytime set has %d detections, clean run %d — want a non-empty subset",
					i, len(dets), full)
			}
		default:
			if m.Any() {
				t.Errorf("clean frame %d mask = %v", i, m)
			}
		}
	}
}

// TestGoldenChaosTrace pins the end-to-end chaos behaviour to a committed
// per-frame (degraded mask, error) trace: a fixed seed + scenario must
// reproduce the trace bit-for-bit on every run, so any silent drift in
// injection, budgets or degraded-mode sequencing fails loudly. The trace
// intentionally contains no floats or timings — it is stable across
// architectures. Regenerate with UPDATE_GOLDEN=1 after an intentional
// behaviour change.
func TestGoldenChaosTrace(t *testing.T) {
	const (
		frames = 40
		spec   = "DET:delay=50ms:every=4,LOC:delay=90ms:every=7:burst=2,MOTPLAN:err:frames=9-10,SRC:drop:every=13"
		seed   = 42
	)
	run := runChaosStep(t, chaosConfig(t, scene.Urban, spec, seed), frames)
	var b strings.Builder
	for i := range run.results {
		e := run.errs[i]
		if e == "" {
			e = "-"
		}
		fmt.Fprintf(&b, "frame=%02d degraded=%s err=%s\n", i, run.masks[i], e)
	}
	checkGolden(t, "chaos_golden.trace", b.String())
}

// TestGoldenAnytimeTrace pins the Virtual+Anytime degraded-mode sequencing
// to a committed trace, the same way TestGoldenChaosTrace pins the plain
// deadline path: a mix of anytime exits (20ms cadence), full DET misses
// (50ms cadence, winning where the two overlap) and LOC misses must
// reproduce bit-for-bit. Regenerate with UPDATE_GOLDEN=1 after an
// intentional behaviour change.
func TestGoldenAnytimeTrace(t *testing.T) {
	const (
		frames = 40
		spec   = "DET:delay=20ms:every=3,DET:delay=50ms:every=7,LOC:delay=90ms:every=11"
		seed   = 42
	)
	run := runChaosStep(t, anytimeChaosConfig(t, scene.Urban, spec, seed), frames)
	var b strings.Builder
	for i := range run.results {
		e := run.errs[i]
		if e == "" {
			e = "-"
		}
		fmt.Fprintf(&b, "frame=%02d degraded=%s dets=%d err=%s\n",
			i, run.masks[i], len(run.results[i].Detections), e)
	}
	checkGolden(t, "anytime_golden.trace", b.String())
}

// TestGoldenDNNDigest pins the DNN numerics end to end: with both native
// networks on, every frame's FrameResult.DNNDigest (DET's output, then each
// track's head output) must reproduce a committed trace. No other
// end-to-end check sees a DNN value, so a kernel change that moves one bit
// of a conv, pool, FC or activation output fails here. The trace holds
// digests of float32 bit patterns, so it is exact for amd64 and 386, whose
// float32 arithmetic is SSE; regenerate with UPDATE_GOLDEN=1 only after an
// intended numerics change.
func TestGoldenDNNDigest(t *testing.T) {
	const frames = 16
	cfg := fastNativeConfig(scene.Highway)
	cfg.Scene.Seed = 42
	cfg.Detect.RunDNN = true
	cfg.Track.RunDNN = true
	p, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := range frames {
		res, err := p.Step()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		fmt.Fprintf(&b, "frame=%02d dnn=%016x\n", i, res.DNNDigest)
	}
	checkGolden(t, "dnn_golden.trace", b.String())
}

// checkGolden compares got with testdata/name line by line, naming every
// drifting line, or rewrites the file when UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden %s rewritten", name)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden trace (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s drift at line %d:\n  got  %q\n  want %q", name, i+1, g, w)
		}
	}
}

// TestDegradedFrameMeetsFrameDeadline is the deadline acceptance test: a
// frame whose DET stage is delayed far past its budget must deliver having
// waited exactly the budget on DET — the stall never rides the frame — in
// degraded TRA-only mode, with the tracker coasting its table and the late
// attempt left pending; the next frame must recover cleanly after draining
// it.
func TestDegradedFrameMeetsFrameDeadline(t *testing.T) {
	const budget = 20 * time.Millisecond
	cfg := chaosConfig(t, scene.Urban, "DET:delay=300ms:frames=5", 1)
	cfg.Deadline.Budgets[StageDet] = budget
	p, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}

	tracksBefore := 0
	for i := 0; i < 5; i++ {
		res, err := p.Step()
		if err != nil {
			t.Fatalf("warmup frame %d: %v", i, err)
		}
		if res.Degraded.Any() {
			t.Fatalf("warmup frame %d unexpectedly degraded: %v", i, res.Degraded)
		}
		tracksBefore = len(res.Tracks)
	}

	res, err := p.Step()
	if err != nil {
		t.Fatalf("degraded frame: %v", err)
	}
	if !res.Degraded.Has(StageDet) {
		t.Fatalf("frame 5 mask = %v, want DET degraded", res.Degraded)
	}
	if res.Detections != nil {
		t.Error("degraded DET frame must carry no fresh detections")
	}
	if tracksBefore > 0 && len(res.Tracks) == 0 {
		t.Error("TRA-only mode lost the coasted track table")
	}
	if res.Pose.Stale || !res.Pose.Tracked {
		t.Errorf("LOC must be unaffected by a DET miss: pose %+v", res.Pose)
	}
	// The injected 300ms stall must never ride the frame: the frame waited
	// the budget on DET, not a nanosecond more, and left the attempt behind.
	if res.Timing.Det != budget {
		t.Errorf("degraded frame waited %v on DET, want its %v budget", res.Timing.Det, budget)
	}
	if p.pending[StageDet] == nil {
		t.Error("the missed DET attempt is not pending after Step")
	}

	// The next frame first drains the late attempt, then runs clean.
	res, err = p.Step()
	if err != nil {
		t.Fatalf("recovery frame: %v", err)
	}
	if res.Degraded.Any() {
		t.Errorf("recovery frame mask = %v, want clean", res.Degraded)
	}
	if p.pending[StageDet] != nil {
		t.Error("the recovery frame ran DET without draining the late attempt")
	}
	p.Drain() // idempotent once quiescent
}

// TestVirtualMissLeavesPendingAttempt pins what a miss on the virtual clock
// leaves behind, on both executors: a real attempt, still running when the
// frame that abandoned it is delivered, that stays in the stage's pending
// slot until the stage's next frame, the Runner's shutdown or Drain waits it
// out. Frame 1's DET body is held at a gate, so its attempt provably
// outlives the frame's delivery.
func TestVirtualMissLeavesPendingAttempt(t *testing.T) {
	const frames, stalled = 4, 1
	for _, inflight := range []int{0, 3} { // 0 drives Step
		t.Run(fmt.Sprintf("inflight=%d", inflight), func(t *testing.T) {
			defer testutil.CheckGoroutines(t)()
			p, err := NewNative(chaosConfig(t, scene.Urban, "DET:delay=50ms:frames=1", 1))
			if err != nil {
				t.Fatal(err)
			}
			gate := make(chan struct{})
			release := sync.OnceFunc(func() { close(gate) })
			defer release()
			// A regression that runs the late body on the frame's own path
			// would wait at the gate forever; fail on the assertions instead.
			defer time.AfterFunc(30*time.Second, release).Stop()
			body := p.stages[StageDet].Run
			p.stages[StageDet].Run = func(fs *frameState, out *stageOut) error {
				if fs.frame() == stalled {
					<-gate
				}
				return body(fs, out)
			}

			// deliveredFrame checks frame i as it is delivered. On the stalled
			// frame the pending slot is read race-free from here: DET wrote it
			// before handing the frame on, and cannot clear it until the gate
			// opens below.
			deliveredFrame := func(i int, res FrameResult, err error) {
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if res.Frame.Index != i {
					t.Fatalf("frame %d delivered at position %d", res.Frame.Index, i)
				}
				if res.Degraded.Has(StageDet) != (i == stalled) {
					t.Errorf("frame %d mask = %v", i, res.Degraded)
				}
				if i == stalled {
					if p.pending[StageDet] == nil {
						t.Error("the missed DET attempt is not pending at delivery")
					}
					release()
				}
			}
			if inflight == 0 {
				for i := 0; i < frames; i++ {
					res, err := p.Step()
					deliveredFrame(i, res, err)
				}
				p.Drain()
			} else {
				r, err := NewRunner(p, RunnerOptions{InFlight: inflight})
				if err != nil {
					t.Fatal(err)
				}
				i := 0
				for res := range r.Run(frames) {
					deliveredFrame(i, res.FrameResult, res.Err)
					i++
				}
				if i != frames {
					t.Fatalf("delivered %d frames, want %d", i, frames)
				}
			}
			if p.pending[StageDet] != nil {
				t.Error("late attempt still pending after the executor drained")
			}
		})
	}
}

// TestWallDeadlineSmoke is the one real-clock test per executor: the wall
// clock's two substitutions in the deadline race — the slept delay and the
// budget timer — driven once each through Step, a Runner and a Fleet. The
// stall is ten times the budget, so no plausible scheduling delay reorders
// the race, and only masks and order are asserted: wall-time verdicts live
// in bench/'s stall_deadline, which records host and spread.
func TestWallDeadlineSmoke(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const frames, stalled = 4, 2
	mkCfg := func() Config {
		cfg := chaosConfig(t, scene.Urban, "DET:delay=300ms:frames=2", 1)
		cfg.Detect.RunDNN = true // the stalled attempt wakes past its anytime finish line
		cfg.Detect.InputSize = 32
		cfg.Deadline = DeadlinePolicy{Enforce: true, Anytime: true} // the wall clock
		for i := range cfg.Deadline.Budgets {
			cfg.Deadline.Budgets[i] = -1
		}
		cfg.Deadline.Budgets[StageDet] = 30 * time.Millisecond
		return cfg
	}
	check := func(t *testing.T, run chaosRun) {
		t.Helper()
		if len(run.results) != frames {
			t.Fatalf("delivered %d frames, want %d", len(run.results), frames)
		}
		for i, res := range run.results {
			if res.Frame.Index != i || run.errs[i] != "" {
				t.Errorf("position %d: frame %d, err %q", i, res.Frame.Index, run.errs[i])
			}
		}
		if m := run.masks[stalled]; !m.Has(StageDet) || m.Anytime() || run.results[stalled].Detections != nil {
			t.Errorf("stalled frame mask = %v with %d detections, want a plain DET miss",
				m, len(run.results[stalled].Detections))
		}
	}
	t.Run("step", func(t *testing.T) { check(t, runChaosStep(t, mkCfg(), frames)) })
	t.Run("runner", func(t *testing.T) { check(t, runChaosRunner(t, mkCfg(), frames, 3)) })
	t.Run("fleet", func(t *testing.T) {
		cfg := mkCfg()
		stall := cfg.Inject
		cfg.Inject = nil // only vehicle 1 stalls
		f, err := NewFleet(FleetConfig{
			Vehicles: 2,
			Config:   cfg,
			InFlight: 3,
			Injects:  map[int]func(string, int) (time.Duration, error){1: stall},
		})
		if err != nil {
			t.Fatal(err)
		}
		runs, _ := collectFleet(t, f, frames)
		check(t, runs[1])
	})
}

// TestMissedStageReportsBudget pins the Timing-on-miss rule in virtual
// mode on both executors: a stage that blew its budget reports the budget
// — the time the frame waited on it — as its StageTiming entry, so the
// degraded frame's E2E never reads below the stall it absorbed.
func TestMissedStageReportsBudget(t *testing.T) {
	const frames = 12
	cfg := chaosConfig(t, scene.Urban, "DET:delay=60ms:every=5", 1)
	budget := cfg.Deadline.resolve()[StageDet]
	runs := map[string][]FrameResult{}
	seq, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		res, err := seq.Step()
		if err != nil {
			t.Fatal(err)
		}
		runs["step"] = append(runs["step"], res)
	}
	pipe, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(pipe, RunnerOptions{InFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	for res := range r.Run(frames) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		runs["runner"] = append(runs["runner"], res.FrameResult)
	}
	for name, results := range runs {
		missed := 0
		for i, res := range results {
			if !res.Degraded.Has(StageDet) {
				continue
			}
			missed++
			if res.Timing.Det != budget {
				t.Errorf("%s frame %d: missed DET reports %v, want its %v budget", name, i, res.Timing.Det, budget)
			}
			if res.Timing.E2E < budget {
				t.Errorf("%s frame %d: E2E %v below the %v budget DET blew", name, i, res.Timing.E2E, budget)
			}
		}
		if missed != 3 {
			t.Errorf("%s: %d DET misses, want 3 (frames 0, 5, 10)", name, missed)
		}
	}
}

// TestRunnerStopDrainsDegradedInFlight is the Stop-ordering satellite:
// stopping the runner while a degraded frame (with a live late attempt)
// is in flight must still drain every admitted frame in order, and by the
// time the result channel closes no abandoned attempt may still be
// touching an engine — verified under -race by stepping the pipeline
// immediately after close. On the virtual clock every other frame abandons
// a real DET attempt, deterministically.
func TestRunnerStopDrainsDegradedInFlight(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	cfg := chaosConfig(t, scene.Urban, "DET:delay=150ms:every=2", 1)
	cfg.Deadline.Budgets[StageDet] = 10 * time.Millisecond
	p, err := NewNative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunnerOptions{InFlight: 4})
	if err != nil {
		t.Fatal(err)
	}

	delivered := 0
	for res := range r.Run(0) {
		if res.Err != nil {
			t.Fatalf("frame %d: %v", res.Frame.Index, res.Err)
		}
		if res.Frame.Index != delivered {
			t.Fatalf("frame %d delivered at position %d: out of order", res.Frame.Index, delivered)
		}
		if res.Degraded.Has(StageDet) != (delivered%2 == 0) {
			t.Errorf("frame %d mask = %v", delivered, res.Degraded)
		}
		delivered++
		if delivered == 3 {
			r.Stop() // frames 3..6 are in flight, several mid-degradation
		}
	}
	if delivered < 3 {
		t.Fatalf("only %d frames delivered", delivered)
	}
	// The channel is closed: every stage goroutine has exited and drained
	// its late attempt. Re-entering the engines must be race-free.
	if p.pending[StageDet] != nil {
		t.Error("result channel closed with a late DET attempt still pending")
	}
	if _, err := p.Step(); err != nil {
		t.Fatalf("post-close step: %v", err)
	}
	p.Drain()
}

// BenchmarkDegradedPipeline measures sequential throughput with wall-clock
// deadline enforcement active and DET blowing its budget every other
// frame — the degraded-mode steady state. The reported degraded/op metric
// is the fraction of frames delivered degraded.
func BenchmarkDegradedPipeline(b *testing.B) {
	cfg := fastNativeConfig(scene.Urban)
	cfg.Deadline = DeadlinePolicy{Enforce: true}
	cfg.Deadline.Budgets[StageDet] = 5 * time.Millisecond
	inj, err := faultinject.New(faultinject.MustParse("DET:delay=20ms:every=2", 1))
	if err != nil {
		b.Fatal(err)
	}
	cfg.Inject = inj.Stage
	p, err := NewNative(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	degraded := 0
	for i := 0; i < b.N; i++ {
		res, err := p.Step()
		if err != nil {
			b.Fatal(err)
		}
		if res.Degraded.Any() {
			degraded++
		}
	}
	b.StopTimer()
	p.Drain()
	b.ReportMetric(float64(degraded)/float64(b.N), "degraded/op")
}
