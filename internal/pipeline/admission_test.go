package pipeline

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"adsim/internal/faultinject"
	"adsim/internal/scene"
	"adsim/internal/testutil"
)

// feedEpoch folds n frames of the given latency (ms) into the controller
// for one vehicle.
func feedEpoch(a *FleetAdmission, vehicle, n int, ms float64) {
	for i := 0; i < n; i++ {
		a.Observe(vehicle, ms)
	}
}

// newAdm builds a standalone shedding controller (no phase barrier) — the
// form the controller-law and determinism tests drive directly.
func newAdm(t *testing.T, cfg AdmissionConfig) *FleetAdmission {
	t.Helper()
	a, err := newFleetAdmission(cfg, true, false)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAdmissionControllerLaw drives the controller directly through its
// decision law: pressure over the high watermark sheds the unhealthiest
// stream, hysteresis gates readmission, the last stream is never shed, and
// the registration-time cap sheds the highest IDs.
func TestAdmissionControllerLaw(t *testing.T) {
	const epoch = controlPeriod

	t.Run("shed-readmit-cycle", func(t *testing.T) {
		a := newAdm(t, AdmissionConfig{}) // watermarks 0.7/0.45 of 100 ms
		for v := 0; v < 3; v++ {
			a.Register(v)
		}
		// Epoch 1: vehicle 2's frames take 80 ms; fleet pressure 0.8 ≥ 0.7
		// sheds the unhealthiest stream.
		feedEpoch(a, 0, epoch, 10)
		feedEpoch(a, 1, epoch, 10)
		feedEpoch(a, 2, epoch, 80)
		if a.Admitted(2) {
			t.Fatal("vehicle 2 still admitted after an 80 ms epoch")
		}
		if a.Admitted(0) != true || a.Admitted(1) != true {
			t.Fatal("healthy vehicles were shed")
		}
		// A shed stream's residual frames accumulate but neither join the
		// decision barrier nor fire decisions.
		feedEpoch(a, 2, epoch, 200)
		// Epoch 2: calm, but the two-epoch hysteresis holds readmission back.
		feedEpoch(a, 0, epoch, 10)
		feedEpoch(a, 1, epoch, 10)
		if a.Admitted(2) {
			t.Fatal("readmitted after a single calm epoch despite the two-epoch hysteresis")
		}
		// Epoch 3: second calm epoch readmits.
		feedEpoch(a, 0, epoch, 10)
		feedEpoch(a, 1, epoch, 10)
		if !a.Admitted(2) {
			t.Fatal("not readmitted after two calm epochs")
		}
		if a.Sheds(2) != 1 {
			t.Errorf("vehicle 2 shed count = %d, want 1", a.Sheds(2))
		}
		want := []AdmissionEvent{
			{Decision: 1, Vehicle: 2, Shed: true, Pressure: 0.8},
			{Decision: 3, Vehicle: 2, Shed: false, Pressure: 0.1},
		}
		if got := a.History(); !reflect.DeepEqual(got, want) {
			t.Errorf("history = %+v, want %+v", got, want)
		}
	})

	t.Run("never-shed-last", func(t *testing.T) {
		a := newAdm(t, AdmissionConfig{})
		a.Register(0)
		for i := 0; i < 5; i++ {
			feedEpoch(a, 0, epoch, 150) // every frame past the deadline
		}
		if !a.Admitted(0) {
			t.Fatal("the only stream was shed")
		}
		if len(a.History()) != 0 {
			t.Errorf("history = %+v, want empty", a.History())
		}
	})

	t.Run("max-admitted-cap", func(t *testing.T) {
		a := newAdm(t, AdmissionConfig{MaxAdmitted: 2})
		for v := 0; v < 4; v++ {
			a.Register(v)
		}
		// Cap 2: registrations 3 and 4 each shed the highest-ID admitted
		// stream — vehicle 0 is the most senior.
		admitted := []bool{a.Admitted(0), a.Admitted(1), a.Admitted(2), a.Admitted(3)}
		want := []bool{true, true, false, false}
		if !reflect.DeepEqual(admitted, want) {
			t.Fatalf("admitted = %v, want %v (cap 2)", admitted, want)
		}
		for _, e := range a.History() {
			if e.Decision != 0 || !e.Shed {
				t.Errorf("cap enforcement event %+v, want decision-0 shed", e)
			}
		}
	})

	t.Run("config-validation", func(t *testing.T) {
		bad := []AdmissionConfig{
			{MaxAdmitted: -1},
			{Target: -time.Second},
		}
		for i, cfg := range bad {
			if _, err := newFleetAdmission(cfg, true, false); err == nil {
				t.Errorf("config %d (%+v) accepted", i, cfg)
			}
		}
	})
}

// admissionFleetConfig is the shared scenario for the determinism property
// tests: three vehicles under virtual deadline enforcement, vehicle 1
// missing its DET budget every other frame via an injected stall — 40 ms
// frames once its window of 4 fills, where its neighbors' take 0. Against
// a 50 ms target that is pressure 0.8: vehicle 1 is shed, and readmitted
// two calm periods later.
func admissionFleetConfig(t *testing.T) FleetConfig {
	t.Helper()
	cfg := fastNativeConfig(scene.Urban)
	cfg.Deadline = DeadlinePolicy{Enforce: true, Virtual: true}
	cfg.Deadline.Budgets[StageDet] = 20 * time.Millisecond
	inj, err := faultinject.New(faultinject.MustParse("DET:delay=30ms:every=2", 7))
	if err != nil {
		t.Fatal(err)
	}
	return FleetConfig{
		Vehicles: 3,
		Config:   cfg,
		InFlight: 4,
		Injects: map[int]func(string, int) (time.Duration, error){
			1: inj.Stage,
		},
		Admission: &AdmissionConfig{Target: 50 * time.Millisecond},
	}
}

// emulateAdmission is the lock-step reference schedule: a fresh controller
// fed each vehicle's per-frame latency sequence (ms) one frame at a time,
// round-robin, skipping shed streams and leaving at end of stream — no
// goroutines, no runners.
func emulateAdmission(t *testing.T, cfg AdmissionConfig, lat [][]float64) []AdmissionEvent {
	t.Helper()
	emu := newAdm(t, cfg)
	for v := range lat {
		emu.Register(v)
	}
	pos := make([]int, len(lat))
	left := make([]bool, len(lat))
	for progress := true; progress; {
		progress = false
		for v := range lat {
			if left[v] {
				continue
			}
			if pos[v] >= len(lat[v]) {
				left[v] = true
				emu.Leave(v)
				continue
			}
			if !emu.Admitted(v) {
				continue
			}
			emu.Observe(v, lat[v][pos[v]])
			pos[v]++
			progress = true
		}
	}
	return emu.History()
}

// TestAdmissionLeaveKeepsQueuedBuckets pins the decision barrier's
// membership rule without a single goroutine: two healthy streams run to
// completion and Leave BEFORE the stalled stream's first bucket arrives.
// Their queued buckets must keep their seats, so every decision averages
// over the same streams — and produces the same history — as lock-step
// feeding. Without the seats decision 1 would see one stream (the last,
// never shed) instead of three (shed).
func TestAdmissionLeaveKeepsQueuedBuckets(t *testing.T) {
	const epoch, frames = controlPeriod, 6 * controlPeriod
	cfg := AdmissionConfig{}
	lat := make([][]float64, 3)
	for v := range lat {
		lat[v] = make([]float64, frames)
	}
	for i := range lat[1] {
		if i%epoch < epoch/2 { // the stalled stream: half of every epoch
			lat[1][i] = 80
		}
	}
	want := []AdmissionEvent{
		{Decision: 1, Vehicle: 1, Shed: true, Pressure: 0.8},
		{Decision: 3, Vehicle: 1, Shed: false, Pressure: 0},
		{Decision: 4, Vehicle: 1, Shed: true, Pressure: 0.8},
		{Decision: 6, Vehicle: 1, Shed: false, Pressure: 0},
	}
	if got := emulateAdmission(t, cfg, lat); !reflect.DeepEqual(got, want) {
		t.Fatalf("lock-step history = %+v, want %+v", got, want)
	}

	a := newAdm(t, cfg)
	for v := range lat {
		a.Register(v)
	}
	for _, v := range []int{0, 2} {
		feedEpoch(a, v, frames, 0)
		a.Leave(v)
	}
	for i := 0; i < frames; i++ {
		if !a.Admitted(1) {
			t.Fatalf("stalled stream parked at frame %d with the healthy streams' buckets still queued", i)
		}
		a.Observe(1, lat[1][i])
	}
	a.Leave(1)
	if got := a.History(); !reflect.DeepEqual(got, want) {
		t.Errorf("early-leave history = %+v, want the lock-step %+v", got, want)
	}
}

// TestAdmissionForgetsOneSpike pins that pressure is the decision's own
// buckets: one 90 ms frame among 1 ms frames sheds its stream once, in the
// decision that consumes the spike's epoch, and recoverPeriods calm
// epochs later the stream is back. (A rolling P99.99 over a long window
// would hold such a spike for thousands of frames, shedding stream after
// stream.)
func TestAdmissionForgetsOneSpike(t *testing.T) {
	const epoch, frames, spike = controlPeriod, 6000, 100
	lat := make([][]float64, 3)
	for v := range lat {
		lat[v] = make([]float64, frames)
		for i := range lat[v] {
			lat[v][i] = 1
		}
	}
	lat[1][spike] = 90
	decision := spike/epoch + 1
	want := []AdmissionEvent{
		{Decision: decision, Vehicle: 1, Shed: true, Pressure: 0.9},
		{Decision: decision + recoverPeriods, Vehicle: 1, Shed: false, Pressure: 0.01},
	}
	if got := emulateAdmission(t, AdmissionConfig{}, lat); !reflect.DeepEqual(got, want) {
		t.Errorf("history = %v, want %v", got, want)
	}
}

// TestAdmissionDeterministicAcrossExecutors is the admission determinism
// property: on the virtual frame clock the shed/readmit event history is a
// pure function of (configs, seeds) — identical across reruns of the
// concurrent fleet at every GOMAXPROCS, and identical to a sequential
// emulation that feeds the controller each vehicle's solo-Runner latency
// sequence round-robin with pause-on-shed semantics. The DET-stalled
// vehicle must go first, before any healthy neighbor (the chaos-shed
// contract).
func TestAdmissionDeterministicAcrossExecutors(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const frames = 96

	// Solo references per vehicle: a Step run, the bitwise baseline for
	// delivered results, and a Runner at the fleet's window, the
	// deterministic per-frame latency sequence (a pause while shed moves
	// no virtual time).
	tmpl := admissionFleetConfig(t)
	solo := make([]chaosRun, tmpl.Vehicles)
	lat := make([][]float64, tmpl.Vehicles)
	for v := range solo {
		vcfg := func() Config {
			cfg := admissionFleetConfig(t) // fresh injector per run
			vcfg := cfg.Config
			vcfg.Scene.Seed = cfg.Config.Scene.Seed + int64(v)
			if inj, ok := cfg.Injects[v]; ok {
				vcfg.Inject = inj
			}
			return vcfg
		}
		solo[v] = runChaosStep(t, vcfg(), frames)
		for _, w := range runnerWalls(t, vcfg(), frames, tmpl.InFlight) {
			lat[v] = append(lat[v], float64(w)/1e6)
		}
	}
	// Same law fed in lock-step, so same history.
	want := emulateAdmission(t, *tmpl.Admission, lat)
	if len(want) == 0 {
		t.Fatal("scenario produced no admission events; the property test is vacuous")
	}
	if first := want[0]; !first.Shed || first.Vehicle != 1 {
		t.Fatalf("first event %+v, want the DET-stalled vehicle 1 shed before healthy neighbors", first)
	}
	sawReadmit := false
	for _, e := range want {
		if !e.Shed {
			sawReadmit = true
		}
	}
	if !sawReadmit {
		t.Error("scenario never readmitted; hysteresis path unexercised")
	}

	for _, procs := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for run := 1; run <= 2; run++ {
				f, err := NewFleet(admissionFleetConfig(t))
				if err != nil {
					t.Fatal(err)
				}
				runs, rep := collectFleet(t, f, frames)
				if !reflect.DeepEqual(rep.Admission, want) {
					t.Fatalf("run %d: fleet history diverges from the Step-driven emulation:\n fleet: %+v\n emu:   %+v",
						run, rep.Admission, want)
				}
				// Each vehicle's fleet-delivered sequence must be a bitwise
				// prefix of its solo sequence (shedding pauses a stream, it
				// never reorders or drops within it), full-length for
				// never-shed vehicles.
				for v, got := range runs {
					if len(got.results) > frames {
						t.Fatalf("vehicle %d delivered %d frames, over the %d asked", v, len(got.results), frames)
					}
					requireIdenticalRuns(t, chaosRun{
						results: solo[v].results[:len(got.results)],
						masks:   solo[v].masks[:len(got.masks)],
						errs:    solo[v].errs[:len(got.errs)],
					}, got)
					if v != 1 && len(got.results) != frames {
						t.Errorf("healthy vehicle %d delivered %d frames, want all %d", v, len(got.results), frames)
					}
				}
				// The report surfaces the controller's view per vehicle.
				for _, vs := range rep.PerVehicle {
					if vs.Vehicle == 1 && vs.Sheds == 0 {
						t.Error("stalled vehicle's scorecard shows no sheds")
					}
					if vs.Vehicle != 1 && (vs.Sheds != 0 || vs.Shed) {
						t.Errorf("healthy vehicle %d scorecard marked shed (%d sheds)", vs.Vehicle, vs.Sheds)
					}
				}
			}
		})
	}
}

// TestFleetPhaseLockKeepsOutputs pins that the phase barrier only paces:
// at 8 co-resident vehicles, aligning admission beats must deliver results
// identical to the same fleet left unphased.
func TestFleetPhaseLockKeepsOutputs(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const vehicles, frames = 8, 10
	mkCfg := func() Config {
		cfg := fastNativeConfig(scene.Urban)
		cfg.Detect.RunDNN = true
		cfg.Detect.InputSize = 16
		cfg.SurveyFrames = 10
		return cfg
	}

	run := func(t *testing.T, phase bool) []chaosRun {
		t.Helper()
		f, err := NewFleet(FleetConfig{
			Vehicles:  vehicles,
			Config:    mkCfg(),
			InFlight:  2,
			PhaseLock: phase,
		})
		if err != nil {
			t.Fatal(err)
		}
		runs, _ := collectFleet(t, f, frames)
		return runs
	}

	plainRuns, phasedRuns := run(t, false), run(t, true)
	for v := 0; v < vehicles; v++ {
		requireIdenticalRuns(t, plainRuns[v], phasedRuns[v])
	}
}
