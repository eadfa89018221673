package pipeline

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"adsim/internal/constraint"
	"adsim/internal/dnn"
	"adsim/internal/img"
	"adsim/internal/scene"
	"adsim/internal/slam"
	"adsim/internal/telemetry"
)

// FleetConfig parameterizes a Fleet: N independent vehicle streams
// multiplexed onto shared compute and storage resources.
type FleetConfig struct {
	// Vehicles is the number of independent streams (≥ 1).
	Vehicles int
	// Config is the per-vehicle pipeline template; Executor, SharedMap and
	// the override maps below specialize it per vehicle. Vehicle i's
	// scenario is seeded Config.Scene.Seed + i.
	Config Config
	// Scenes overrides the template scene configuration for specific
	// vehicles (key = vehicle ID) — per-vehicle scenario assignment, so
	// different vehicles in one fleet drive different scenario programs
	// (scenario.Program.Configure builds the per-vehicle scene.Config).
	// The seed rules still apply on top: a nonzero Seed in the assigned
	// scene wins, then the template derivation — so one scenario can be
	// assigned to several vehicles without colliding streams. Keys past
	// the initial Vehicles pre-provision churn: a vehicle later created by
	// AddVehicle picks up its entry.
	Scenes map[int]scene.Config
	// InFlight is each vehicle Runner's pipelining window; 0 selects
	// DefaultInFlight.
	InFlight int
	// Executor is the fleet's core budget: its Workers() count is split
	// evenly across the initial Vehicles, and every vehicle's DET and TRA
	// engines (vehicles added later included) share one executor of
	// max(1, Workers()/Vehicles) kernel workers. The same width caps TRA's
	// per-track fan-out, so a fleet whose vehicles fill the cores runs each
	// vehicle's kernels and tracks on its own stage goroutines, one worker
	// each. nil is a budget of the machine (dnn.NewExecutor(0)). The share
	// replaces any executor the template's engine configs name.
	Executor *dnn.Executor
	// SharedMap, when non-nil, is the prior-map store all vehicles share;
	// each vehicle localizes through a private slam.VehicleStore view, so
	// runtime map updates never cross streams. A slam.ShardStore here is one
	// demand-loaded LRU cache for the whole fleet. nil gives each vehicle
	// its own store per the template (Config.MapStore or a fresh PriorMap).
	SharedMap slam.MapStore
	// Injects overrides the template fault injector for specific vehicles
	// (key = vehicle ID). A faulted vehicle must not perturb the others.
	Injects map[int]func(stage string, frame int) (time.Duration, error)
	// MonitorWindow sizes the per-vehicle and fleet-level constraint
	// monitors; 0 selects constraint.DefaultMonitorWindow.
	MonitorWindow int
	// Admission, when non-nil, puts the fleet under the frame-budget
	// admission controller (admission.go): when the fleet cannot hold the
	// frame deadline for everyone, whole vehicle streams are shed —
	// unhealthiest first — and readmitted with hysteresis once pressure
	// clears. FleetReport marks shed vehicles.
	Admission *AdmissionConfig
	// PhaseLock paces co-resident vehicles on a fleet beat: a vehicle
	// admits its next frame only once every actively admitted vehicle has
	// asked for one, so no stream runs ahead and crowds the others off the
	// cores. Results are unchanged; the delivered tail is what moves
	// (DESIGN.md §14 has the measurement).
	PhaseLock bool
}

// Fleet drives N vehicle pipelines concurrently, one pipelined Runner per
// vehicle. The vehicles share one dnn.Executor holding their share of the
// fleet's core budget (FleetConfig.Executor; every forward pass runs on its
// own engine's goroutine), one network cache (one copy of the weights) and,
// optionally, one prior-map store. Each vehicle's delivered results are
// bitwise-identical to the same seed run solo (see
// TestFleetMatchesSoloRunners) — sharing changes the schedule and the
// cost, never the outputs.
//
// The membership is dynamic: AddVehicle and RemoveVehicle churn streams
// mid-run without perturbing the survivors, and an admission controller
// (FleetConfig.Admission) sheds streams when the machine saturates. Run is
// Start + Wait for callers with static membership.
type Fleet struct {
	cfg      FleetConfig
	exec     *dnn.Executor // every vehicle's share of the core budget
	nets     *dnn.NetCache
	fleetMon *constraint.Monitor
	adm      *FleetAdmission

	mu       sync.Mutex
	vehicles []*fleetVehicle
	nextID   int
	started  bool
	startT   time.Time
	frames   int
	onResult func(vehicle int, res RunnerResult)
}

// fleetVehicle is one stream: its pipeline, runner, private monitor and
// shared-store view. delivered/errs are owned by the consumer goroutine and
// read only after done closes.
type fleetVehicle struct {
	id      int
	seed    int64
	p       *Pipeline
	r       *Runner
	mon     *constraint.Monitor
	store   *slam.VehicleStore
	done    chan struct{}
	removed bool

	delivered int
	errs      int
}

// NewFleet builds the N vehicle pipelines (surveying per the template) and
// their runners. Nothing executes until Start/Run.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Vehicles < 1 {
		return nil, fmt.Errorf("pipeline: fleet of %d vehicles", cfg.Vehicles)
	}
	budget := cfg.Executor
	if budget == nil {
		budget = dnn.NewExecutor(0)
	}
	f := &Fleet{
		cfg:      cfg,
		exec:     dnn.NewExecutor(max(1, budget.Workers()/cfg.Vehicles)),
		nets:     dnn.NewNetCache(),
		fleetMon: constraint.NewMonitor(constraint.MonitorConfig{Window: cfg.MonitorWindow}),
	}
	if cfg.Admission != nil || cfg.PhaseLock {
		acfg := AdmissionConfig{}
		shedding := cfg.Admission != nil
		if shedding {
			acfg = *cfg.Admission
		}
		adm, err := newFleetAdmission(acfg, shedding, cfg.PhaseLock)
		if err != nil {
			return nil, err
		}
		f.adm = adm
	}
	for i := 0; i < cfg.Vehicles; i++ {
		if _, err := f.addVehicleLocked(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// addVehicleLocked builds and registers the next vehicle (caller holds the
// lock, or is NewFleet before the fleet escapes).
func (f *Fleet) addVehicleLocked() (*fleetVehicle, error) {
	id := f.nextID
	cfg := f.cfg
	vcfg := cfg.Config
	seed := cfg.Config.Scene.Seed + int64(id)
	if sc, ok := cfg.Scenes[id]; ok {
		vcfg.Scene = sc
		if sc.Seed != 0 {
			seed = sc.Seed
		}
	}
	vcfg.Scene.Seed = seed
	vcfg.Detect.Executor = f.exec
	vcfg.Track.Executor = f.exec
	// One shared network per architecture+size across the fleet: weights are
	// deterministic, so sharing never changes results, and the fleet keeps
	// one copy of them instead of one per vehicle.
	if vcfg.Detect.Nets == nil {
		vcfg.Detect.Nets = f.nets
	}
	if vcfg.Track.Nets == nil {
		vcfg.Track.Nets = f.nets
	}
	var store *slam.VehicleStore
	if cfg.SharedMap != nil {
		store = slam.NewVehicleStore(id, cfg.SharedMap)
		vcfg.MapStore = store
	}
	if inj, ok := cfg.Injects[id]; ok {
		vcfg.Inject = inj
	}
	mon := constraint.NewMonitor(constraint.MonitorConfig{Window: cfg.MonitorWindow})
	sinks := []telemetry.Sink{mon, f.fleetMon}
	if vcfg.Telemetry != nil {
		sinks = append(sinks, vcfg.Telemetry)
	}
	vcfg.Telemetry = telemetry.Multi(sinks...)

	p, err := NewNative(vcfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: fleet vehicle %d: %w", id, err)
	}
	var gate *vehicleGate
	if f.adm != nil {
		gate = &vehicleGate{a: f.adm, id: id}
	}
	r, err := NewRunner(p, RunnerOptions{InFlight: cfg.InFlight, gate: gate})
	if err != nil {
		return nil, fmt.Errorf("pipeline: fleet vehicle %d: %w", id, err)
	}
	v := &fleetVehicle{
		id: id, seed: vcfg.Scene.Seed, p: p, r: r, mon: mon, store: store,
		done: make(chan struct{}),
	}
	if f.adm != nil {
		f.adm.Register(id)
	}
	f.vehicles = append(f.vehicles, v)
	f.nextID++
	return v, nil
}

// Snapshot returns the live fleet-level constraint verdict over the rolling
// monitor window. Safe to call mid-run; use it to observe the delivered tail
// at a chosen instant (e.g. steady state) rather than wherever Wait lands.
func (f *Fleet) Snapshot() constraint.LiveReport { return f.fleetMon.Snapshot() }

// Vehicle returns vehicle id's pipeline (for inspection after the run;
// touching it mid-run races with the stage goroutines), or nil for an
// unknown ID.
func (f *Fleet) Vehicle(id int) *Pipeline {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, v := range f.vehicles {
		if v.id == id {
			return v.p
		}
	}
	return nil
}

// Warm pre-pays every vehicle's one-time cold-start costs so a measured run
// starts from steady state: one DET forward per vehicle primes each
// detector's scratch for the fleet's input shape, and a shared-map read
// pages each vehicle's initial tile window into the shard cache. Call it
// before Start, while no DET stage runs. Warm never touches a scenario
// stream or a stateful engine, so a warmed run is bitwise a cold one.
func (f *Fleet) Warm() {
	f.mu.Lock()
	vehicles := append([]*fleetVehicle(nil), f.vehicles...)
	f.mu.Unlock()
	w, h := f.cfg.Config.Scene.Width, f.cfg.Config.Scene.Height
	for _, v := range vehicles {
		if w > 0 && h > 0 {
			v.p.det.Detect(img.NewGray(w, h))
		}
		if v.store != nil {
			v.store.Candidates(0, 20)
		}
	}
}

// Stop ceases admitting frames on every vehicle; in-flight frames drain and
// Wait returns after all vehicles deliver what was admitted.
func (f *Fleet) Stop() {
	f.mu.Lock()
	vehicles := append([]*fleetVehicle(nil), f.vehicles...)
	f.mu.Unlock()
	for _, v := range vehicles {
		v.r.Stop()
	}
}

// Start launches every vehicle for frames frames (<= 0: until Stop) and
// returns immediately; Wait blocks for completion and scores the run.
// onResult, when non-nil, receives every delivered frame — in order within
// a vehicle, but concurrently across vehicles (it must be safe for
// concurrent use). Vehicles added later inherit the same frame count and
// callback.
func (f *Fleet) Start(frames int, onResult func(vehicle int, res RunnerResult)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return fmt.Errorf("pipeline: fleet already started")
	}
	f.started = true
	f.frames = frames
	f.onResult = onResult
	f.startT = time.Now()
	for _, v := range f.vehicles {
		f.startVehicle(v)
	}
	return nil
}

// startVehicle launches one stream's consumer goroutine: drain the runner,
// feed the admission controller and the caller's callback, then close done.
func (f *Fleet) startVehicle(v *fleetVehicle) {
	go func() {
		defer close(v.done)
		for res := range v.r.Run(f.frames) {
			v.delivered++
			if res.Err != nil {
				v.errs++
			}
			if f.adm != nil {
				f.adm.Observe(v.id, float64(res.Wall)/1e6)
			}
			if f.onResult != nil {
				f.onResult(v.id, res)
			}
		}
		if f.adm != nil {
			// Full retirement happens HERE, after the final delivery is
			// observed — a position in the vehicle's stream — not at SRC
			// exhaustion, which leads deliveries by the in-flight window.
			f.adm.Leave(v.id)
		}
		v.p.Drain()
	}()
}

// AddVehicle provisions one new vehicle stream — template specialization,
// survey, shared-store view, admission registration — and, on a started
// fleet, launches it immediately. The new vehicle ID (never recycled) is
// returned. Surviving streams only ever observe the addition as load.
func (f *Fleet) AddVehicle() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, err := f.addVehicleLocked()
	if err != nil {
		return 0, err
	}
	if f.started {
		f.startVehicle(v)
	}
	return v.id, nil
}

// RemoveVehicle retires one vehicle stream mid-run: admission ceases, its
// in-flight frames drain and are delivered, and its engines drain — all
// without perturbing surviving vehicles' results. The vehicle keeps its row
// in the final FleetReport, marked Removed. Blocks until the stream is
// fully down.
func (f *Fleet) RemoveVehicle(id int) error {
	f.mu.Lock()
	var v *fleetVehicle
	for _, x := range f.vehicles {
		if x.id == id {
			v = x
			break
		}
	}
	if v == nil || v.removed {
		f.mu.Unlock()
		return fmt.Errorf("pipeline: fleet has no vehicle %d", id)
	}
	v.removed = true
	started := f.started
	if !started {
		// Never ran: drop the row entirely.
		keep := f.vehicles[:0]
		for _, x := range f.vehicles {
			if x != v {
				keep = append(keep, x)
			}
		}
		f.vehicles = keep
	}
	f.mu.Unlock()

	v.r.Stop() // also releases the admission gate (vehicleGate.Leave)
	if started {
		<-v.done // admitted frames delivered, engines drained
	}
	if f.adm != nil {
		f.adm.Leave(id) // no-op when the gate already left
	}
	return nil
}

// Wait blocks until every vehicle stream (including any added mid-run) has
// delivered and drained, then returns the fleet scorecard. Call after
// Start.
func (f *Fleet) Wait() FleetReport {
	for {
		f.mu.Lock()
		pending := f.vehicles[:0:0]
		for _, v := range f.vehicles {
			select {
			case <-v.done:
			default:
				pending = append(pending, v)
			}
		}
		f.mu.Unlock()
		if len(pending) == 0 {
			break
		}
		for _, v := range pending {
			<-v.done
		}
	}
	f.mu.Lock()
	wall := time.Since(f.startT)
	vehicles := append([]*fleetVehicle(nil), f.vehicles...)
	f.mu.Unlock()

	rep := FleetReport{
		Vehicles: len(vehicles),
		Wall:     wall,
		Fleet:    f.fleetMon.Snapshot(),
	}
	if f.adm != nil {
		rep.Admission = f.adm.History()
	}
	for _, v := range vehicles {
		rep.Frames += v.delivered
		score := VehicleScore{
			Vehicle: v.id,
			Seed:    v.seed,
			Frames:  v.delivered,
			Errs:    v.errs,
			Removed: v.removed,
			Report:  v.mon.Snapshot(),
		}
		if f.adm != nil {
			score.Shed = !f.adm.Admitted(v.id)
			score.Sheds = f.adm.Sheds(v.id)
		}
		rep.PerVehicle = append(rep.PerVehicle, score)
	}
	if secs := wall.Seconds(); secs > 0 {
		rep.FramesPerSec = float64(rep.Frames) / secs
	}
	if fps := f.cfg.Config.Scene.FPS; fps > 0 {
		rep.VehiclesPerSec = rep.FramesPerSec / fps
	}
	return rep
}

// Run drives every vehicle for frames frames concurrently and blocks until
// all streams complete, returning the fleet scorecard (Start + Wait).
func (f *Fleet) Run(frames int, onResult func(vehicle int, res RunnerResult)) FleetReport {
	f.Start(frames, onResult)
	return f.Wait()
}

// FleetReport is the fleet-level scorecard of one Run: the aggregate
// constraint verdict over every vehicle's delivered frames, the sustained
// throughput, and one scorecard per vehicle.
type FleetReport struct {
	Vehicles int
	// Frames is the total delivered across all vehicles.
	Frames int
	Wall   time.Duration
	// FramesPerSec is the fleet's aggregate delivery rate.
	FramesPerSec float64
	// VehiclesPerSec is FramesPerSec normalized by the scenario frame rate:
	// how many real-time vehicle streams this machine sustains — the
	// consolidation headroom number the fleet benchmark scales over cores.
	VehiclesPerSec float64
	// Fleet is the constraint verdict over ALL vehicles' frames — its
	// TailMs is the fleet-level P99.99 frame latency.
	Fleet constraint.LiveReport
	// Admission is the controller's shed/readmit event history (nil
	// without admission control). Under DeadlinePolicy.Virtual it is
	// identical across reruns of a seed.
	Admission  []AdmissionEvent
	PerVehicle []VehicleScore
}

// VehicleScore is one vehicle's scorecard.
type VehicleScore struct {
	Vehicle int
	Seed    int64
	Frames  int
	// Errs counts frames delivered with a pipeline error.
	Errs int
	// Shed marks a stream the admission controller held shed at run end.
	Shed bool
	// Sheds counts how many times the stream was shed during the run.
	Sheds int
	// Removed marks a vehicle retired mid-run by RemoveVehicle.
	Removed bool
	// Report is the vehicle's private constraint verdict; its
	// TotalDegraded counts deadline-degraded frames.
	Report constraint.LiveReport
}

// Pass reports whether the fleet-level verdict passed.
func (r FleetReport) Pass() bool { return r.Fleet.Pass() }

// String renders the fleet verdict: the aggregate constraint lines, the
// throughput, and one scorecard line per vehicle.
func (r FleetReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d vehicles, %d frames in %v (%.1f frames/s ≈ %.2f real-time vehicles)\n",
		r.Vehicles, r.Frames, r.Wall.Round(time.Millisecond), r.FramesPerSec, r.VehiclesPerSec)
	fmt.Fprintf(&b, "fleet P99.99 %.2f ms\n", r.Fleet.TailMs)
	if len(r.Admission) > 0 {
		sheds := 0
		for _, e := range r.Admission {
			if e.Shed {
				sheds++
			}
		}
		fmt.Fprintf(&b, "admission: %d sheds, %d readmits\n", sheds, len(r.Admission)-sheds)
	}
	b.WriteString(r.Fleet.String())
	for _, v := range r.PerVehicle {
		fmt.Fprintf(&b, "vehicle %d (seed %d): %d frames, %d errs, %d degraded, tail %.2f ms, mean %.2f ms",
			v.Vehicle, v.Seed, v.Frames, v.Errs, v.Report.TotalDegraded, v.Report.TailMs, v.Report.MeanMs)
		if v.Sheds > 0 || v.Shed {
			fmt.Fprintf(&b, ", shed ×%d", v.Sheds)
			if v.Shed {
				b.WriteString(" (out)")
			}
		}
		if v.Removed {
			b.WriteString(" (removed)")
		}
		b.WriteString("\n")
	}
	return b.String()
}
