package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adsim/internal/faultinject"
	"adsim/internal/scenario"
	"adsim/internal/scene"
	"adsim/internal/testutil"
)

// This file is the fleet's long-haul soak harness: thousands of virtually-
// deadlined frames through a churning, admission-controlled fleet under the
// compound mixed-stress scenario, with structural health checks — zero
// goroutine leaks, bounded heap growth, and monitor/report invariants that
// must hold across every churn boundary. `make soak` runs it under -race;
// `make soak-smoke` (wired into `make check` and CI) runs the -short
// scaling.

// soakFrames picks the soak length: long enough that a per-frame leak of
// even a few KB is unmissable in the heap bound, scaled down under -short
// so the smoke variant stays in unit-test territory.
func soakFrames() int {
	if testing.Short() {
		return 200
	}
	return 1000
}

// TestFleetSoak drives a 4-vehicle admission-controlled fleet through the
// mixed-stress scenario program for thousands of virtual-deadline frames,
// churning membership mid-run (one vehicle added, one removed, both while
// streams are live), and then audits the wreckage: every goroutine gone,
// heap growth bounded (no monotonic per-frame leak), every monitor's frame
// count equal to its stream's delivered count, the fleet monitor equal to
// their sum, and the admission history per-vehicle alternating shed/readmit.
// Every stream is faulted, so every period's worst frame is 40 or 50 ms:
// against the default 100 ms target the controller decides every period
// and never sheds, so all five streams soak at full load. The shed/readmit
// cycle across churn is TestAdmissionChurnCycle's.
func TestFleetSoak(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	frames := soakFrames()
	const vehicles = 4

	prog, err := scenario.Load("mixed-stress")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastNativeConfig(scene.Urban)
	cfg.Scene = prog.Configure(cfg.Scene)
	cfg.SurveyFrames = 10
	cfg.Deadline = DeadlinePolicy{Enforce: true, Virtual: true}

	// Every vehicle (including the one churned in later, id 4) runs the
	// program's fault rules with a per-vehicle seed: deterministic injected
	// LOC/TRA stalls supply the virtual latency the admission signal reads.
	injects := make(map[int]func(string, int) (time.Duration, error))
	for v := 0; v <= vehicles; v++ {
		inj, err := faultinject.New(faultinject.FromProgram(prog, 100+int64(v)))
		if err != nil {
			t.Fatal(err)
		}
		injects[v] = inj.Stage
	}

	f, err := NewFleet(FleetConfig{
		Vehicles:  vehicles,
		Config:    cfg,
		InFlight:  3,
		Injects:   injects,
		Admission: &AdmissionConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	// Scripted churn, keyed to total delivered frames so it lands mid-run at
	// any soak length: one vehicle joins at an eighth of the run, one leaves
	// at a quarter. The signal channels fire exactly once.
	addAt := int64(vehicles * frames / 8)
	removeAt := int64(vehicles * frames / 4)
	var delivered atomic.Int64
	addSig, removeSig := make(chan struct{}), make(chan struct{})
	var addOnce, removeOnce sync.Once
	churnDone := make(chan struct{})

	if err := f.Start(frames, func(v int, res RunnerResult) {
		n := delivered.Add(1)
		if n >= addAt {
			addOnce.Do(func() { close(addSig) })
		}
		if n >= removeAt {
			removeOnce.Do(func() { close(removeSig) })
		}
	}); err != nil {
		t.Fatal(err)
	}
	var added int
	var addErr, removeErr error
	go func() {
		defer close(churnDone)
		<-addSig
		added, addErr = f.AddVehicle()
		<-removeSig
		removeErr = f.RemoveVehicle(2)
	}()

	rep := f.Wait()
	<-churnDone
	if addErr != nil {
		t.Fatalf("AddVehicle: %v", addErr)
	}
	if removeErr != nil {
		t.Fatalf("RemoveVehicle: %v", removeErr)
	}
	if added != vehicles {
		t.Errorf("churned-in vehicle got id %d, want %d", added, vehicles)
	}

	// Monitor invariants at (and across) the churn boundaries: every
	// vehicle's private monitor folded exactly its delivered frames — the
	// removed vehicle's a clean prefix, nobody double- or under-counted —
	// and the fleet monitor folded exactly the sum.
	if rep.Vehicles != vehicles+1 {
		t.Errorf("report covers %d vehicles, want %d (4 initial + 1 churned in)", rep.Vehicles, vehicles+1)
	}
	total := 0
	for _, vs := range rep.PerVehicle {
		total += vs.Frames
		if vs.Report.N != vs.Frames {
			t.Errorf("vehicle %d monitor folded %d frames, delivered %d", vs.Vehicle, vs.Report.N, vs.Frames)
		}
		switch vs.Vehicle {
		case 2:
			if !vs.Removed {
				t.Error("vehicle 2 not marked Removed")
			}
			if vs.Frames >= frames {
				t.Errorf("removed vehicle delivered %d frames, want a proper prefix of %d", vs.Frames, frames)
			}
		case vehicles:
			if vs.Removed {
				t.Errorf("churned-in vehicle %d marked Removed", vs.Vehicle)
			}
		}
	}
	if rep.Frames != total {
		t.Errorf("report Frames %d != per-vehicle sum %d", rep.Frames, total)
	}
	if rep.Fleet.N != total {
		t.Errorf("fleet monitor folded %d frames, delivered %d", rep.Fleet.N, total)
	}
	if got := delivered.Load(); int(got) != total {
		t.Errorf("callback saw %d frames, report says %d", got, total)
	}

	// Admission history validity: decisions nondecreasing, and per vehicle
	// strictly alternating shed → readmit → shed …, starting with a shed.
	lastDecision := 0
	shedNow := map[int]bool{}
	for _, e := range rep.Admission {
		if e.Decision < lastDecision {
			t.Errorf("admission history decisions out of order: %v", rep.Admission)
			break
		}
		lastDecision = e.Decision
		if e.Shed == shedNow[e.Vehicle] {
			t.Errorf("vehicle %d admission events do not alternate: %v", e.Vehicle, rep.Admission)
			break
		}
		shedNow[e.Vehicle] = e.Shed
		if e.Pressure < 0 || e.Pressure > 1 {
			t.Errorf("virtual admission pressure %v out of [0,1]", e.Pressure)
		}
	}

	// Heap growth bound: after a full GC the soak must not have accreted
	// state proportional to frames delivered. The allowance covers pooled
	// scratch arenas, the added vehicle's engines and map view, and
	// allocator slack — a per-frame leak of even 4KB would blow through it
	// at either soak length.
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > 64<<20 {
		t.Errorf("heap grew %d MB over the soak (from %d to %d bytes)",
			growth>>20, before.HeapAlloc, after.HeapAlloc)
	}
}

// TestAdmissionChurnCycle drives fleet admission through whole shed →
// readmit cycles across both kinds of churn. Vehicle 0 runs clean; the
// others, the churned-in vehicle 3 and the removed vehicle 2 among them,
// run mixed-stress's fault rules, so every period of theirs holds a 40 or
// 50 ms frame. Against a 60 ms target the controller sheds a faulted
// stream at every decision it takes part in with a 50 ms frame, and two
// periods of vehicle 0 alone (0 ms) readmit one. With every stream
// faulted no target does both: backing off at 50 ms needs one under
// 71 ms, a calm 40 ms period one over 88 ms. Vehicle 0's consumer holds
// its stream while each churn call runs, so both land mid-run.
func TestAdmissionChurnCycle(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const vehicles, frames = 3, 240

	prog, err := scenario.Load("mixed-stress")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastNativeConfig(scene.Urban)
	cfg.Scene = prog.Configure(cfg.Scene)
	cfg.SurveyFrames = 10
	cfg.Deadline = DeadlinePolicy{Enforce: true, Virtual: true}
	injects := make(map[int]func(string, int) (time.Duration, error))
	for v := 1; v <= vehicles; v++ {
		inj, err := faultinject.New(faultinject.FromProgram(prog, 100+int64(v)))
		if err != nil {
			t.Fatal(err)
		}
		injects[v] = inj.Stage
	}
	f, err := NewFleet(FleetConfig{
		Vehicles:  vehicles,
		Config:    cfg,
		InFlight:  3,
		Injects:   injects,
		Admission: &AdmissionConfig{Target: 60 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Event counts at the moment each churn call returned.
	var atAdd, atRemove int
	var added int
	var addErr, removeErr error
	anchor := 0
	rep := f.Run(frames, func(v int, res RunnerResult) {
		if v != 0 {
			return
		}
		switch anchor++; anchor {
		case frames / 3:
			added, addErr = f.AddVehicle()
			atAdd = len(f.adm.History())
		case 2 * frames / 3:
			removeErr = f.RemoveVehicle(2)
			atRemove = len(f.adm.History())
		}
	})
	if addErr != nil {
		t.Fatalf("AddVehicle: %v", addErr)
	}
	if removeErr != nil {
		t.Fatalf("RemoveVehicle: %v", removeErr)
	}
	if added != vehicles {
		t.Fatalf("churned-in vehicle got id %d, want %d", added, vehicles)
	}

	// Decisions nondecreasing, per vehicle strictly alternating shed →
	// readmit → shed …, starting with a shed, through both churn calls.
	lastDecision := 0
	shedNow := map[int]bool{}
	for _, e := range rep.Admission {
		if e.Decision < lastDecision || e.Shed == shedNow[e.Vehicle] {
			t.Fatalf("admission history out of order or not alternating at %v: %v", e, rep.Admission)
		}
		lastDecision = e.Decision
		shedNow[e.Vehicle] = e.Shed
	}
	count := func(events []AdmissionEvent, shed bool, vehicle int) int {
		n := 0
		for _, e := range events {
			if e.Shed == shed && (vehicle < 0 || e.Vehicle == vehicle) {
				n++
			}
		}
		return n
	}
	if count(rep.Admission[:atAdd], true, -1) == 0 || count(rep.Admission[:atAdd], false, -1) == 0 {
		t.Errorf("no shed and readmit before AddVehicle (%d events): %v", atAdd, rep.Admission)
	}
	if count(rep.Admission, true, added) == 0 {
		t.Errorf("churned-in vehicle %d never shed: %v", added, rep.Admission)
	}
	if count(rep.Admission[atRemove:], false, -1) == 0 {
		t.Errorf("no readmit after RemoveVehicle (%d events before it): %v", atRemove, rep.Admission)
	}
	for _, vs := range rep.PerVehicle {
		if vs.Removed != (vs.Vehicle == 2) {
			t.Errorf("vehicle %d Removed=%v", vs.Vehicle, vs.Removed)
		}
		if vs.Vehicle == 0 && (vs.Sheds != 0 || vs.Frames != frames) {
			t.Errorf("clean vehicle 0 shed %d times, delivered %d of %d frames", vs.Sheds, vs.Frames, frames)
		}
	}
}

// TestFleetChurnBitwiseParity pins the churn isolation contract at the
// bitwise level: with a vehicle added and another removed while every stream
// is mid-run, each surviving stream's delivered sequence — and the late
// joiner's — is identical to the same seed run solo, and the removed
// stream's is a clean prefix of its solo run. Churn may change schedules and
// costs, never results.
func TestFleetChurnBitwiseParity(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const vehicles, frames = 3, 20
	cfg := fastNativeConfig(scene.Urban)
	cfg.SurveyFrames = 0
	raw := surveyedBase(t, cfg, 20)

	f, err := NewFleet(FleetConfig{
		Vehicles:  vehicles,
		Config:    cfg,
		InFlight:  2,
		SharedMap: decodeBase(t, raw),
	})
	if err != nil {
		t.Fatal(err)
	}

	// The churn window: when vehicle 0 delivers its 6th frame the churn
	// goroutine adds vehicle 3 and removes vehicle 1; vehicle 0's consumer
	// then BLOCKS until both complete, guaranteeing the churn lands while
	// every stream is strictly mid-run. Vehicle 1's consumer is held at ITS
	// 6th frame until AddVehicle returns: the joiner's build can outlast a
	// 20-frame stream on a loaded host, and a stream that already finished
	// cannot be removed mid-run.
	churnStart, added, churnDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var startOnce sync.Once
	var addErr, removeErr error
	go func() {
		defer close(churnDone)
		<-churnStart
		_, addErr = f.AddVehicle()
		close(added)
		removeErr = f.RemoveVehicle(1)
	}()

	var mu sync.Mutex
	runs := make(map[int]*chaosRun)
	rep := f.Run(frames, func(v int, res RunnerResult) {
		mu.Lock()
		run := runs[v]
		if run == nil {
			run = &chaosRun{}
			runs[v] = run
		}
		run.results = append(run.results, stripSchedule(res.FrameResult))
		run.masks = append(run.masks, res.Degraded)
		run.errs = append(run.errs, errString(res.Err))
		n := len(run.results)
		mu.Unlock()
		if v == 0 && n == 6 {
			startOnce.Do(func() { close(churnStart) })
			<-churnDone
		}
		if v == 1 && n == 6 {
			<-added
		}
	})
	<-churnDone
	if addErr != nil {
		t.Fatalf("AddVehicle: %v", addErr)
	}
	if removeErr != nil {
		t.Fatalf("RemoveVehicle: %v", removeErr)
	}

	if rep.Vehicles != vehicles+1 {
		t.Fatalf("report covers %d vehicles, want %d", rep.Vehicles, vehicles+1)
	}
	for _, vs := range rep.PerVehicle {
		if vs.Removed != (vs.Vehicle == 1) {
			t.Errorf("vehicle %d Removed=%v", vs.Vehicle, vs.Removed)
		}
	}

	for id := 0; id <= vehicles; id++ {
		got := runs[id]
		if got == nil {
			t.Errorf("vehicle %d delivered nothing", id)
			continue
		}
		solo := cfg
		solo.Scene.Seed = cfg.Scene.Seed + int64(id)
		solo.MapStore = decodeBase(t, raw)
		want := runChaosRunner(t, solo, frames, 2)
		if id == 1 {
			// The removed stream stops early; whatever it delivered must be
			// a bitwise prefix of its solo run.
			n := len(got.results)
			if n >= frames {
				t.Errorf("removed vehicle delivered %d frames, want a proper prefix of %d", n, frames)
				continue
			}
			want.results = want.results[:n]
			want.masks = want.masks[:n]
			want.errs = want.errs[:n]
		}
		requireIdenticalRuns(t, want, *got)
	}
}
