package main

import (
	"fmt"
	"time"

	"adsim"
	"adsim/internal/dnn"
	"adsim/internal/pipeline"
	"adsim/internal/scene"
	"adsim/internal/slam"
)

// workers is the kernel fan-out of every dnn.Executor the benchmark builds
// and the GOMAXPROCS it pins: the protocol is defined for exactly two
// cores, so a number means the same thing on any host with at least two.
const workers = 2

// spec is one closed-loop workload. A repetition builds the system from
// nothing, runs W warm-up frames per vehicle (discarded) and times
// Vehicles·N deliveries; K repetitions make a run.
type spec struct {
	Name string
	Why  string
	W    int // warm-up frames per vehicle
	N    int // timed frames per vehicle
	K    int // repetitions when no -seconds budget is given

	Vehicles int // 1 = one Runner; >1 = a Fleet
	InFlight int
	// Stall selects the deadline-enforced, fault-injected configuration
	// (DNNs off, tail scheduler on) instead of the clean DNN one.
	Stall bool
	// RefFrames is how many leading frames per vehicle are compared with
	// the sequential Pipeline.Step reference; 0 for the one workload whose
	// outputs depend on wall-clock misses.
	RefFrames int
}

const surveyFrames = 20

// stallRule is the injected fault of stall_deadline: 60 ms sits well clear
// of DET's 35 ms budget, so whether a stalled frame misses never depends
// on scheduling noise (the 32 ms stall of BenchmarkRunnerTail races that
// budget and flips).
const stallRule = "DET:delay=60ms:every=7:burst=3"

var workloads = []spec{
	{
		Name: "solo_latency",
		Why:  "one Runner at InFlight 1: un-queued critical-path latency; kernels and intra-frame parallelism do all the work, window/queues/batching none",
		W:    25, N: 200, K: 8, Vehicles: 1, InFlight: 1, RefFrames: 25,
	},
	{
		Name: "solo_pipelined",
		Why:  "same config and seed at InFlight 4: throughput and stage queueing; its delta against solo_latency isolates pipeline.Runner",
		W:    25, N: 200, K: 8, Vehicles: 1, InFlight: 4, RefFrames: 25,
	},
	{
		Name: "fleet_batched",
		Why:  "3 phase-locked vehicles on one batching executor and one shared map: the only workload where dnn gather, NetCache, VehicleStore and Fleet do work",
		W:    25, N: 70, K: 5, Vehicles: 3, InFlight: 1, RefFrames: 25,
	},
	{
		Name: "stall_deadline",
		Why:  "DNNs off, 60 ms DET stalls under deadline enforcement and the tail scheduler: bypasses every kernel, exercises every scheduling and policy path",
		W:    35, N: 210, K: 3, Vehicles: 1, InFlight: 6, Stall: true,
	},
}

// cpuBound reports whether the workload's times are set by how fast the
// host computes, and so are scaled by the yardstick. stall_deadline's are
// set by a 60 ms timer: scaling them would add the host's noise to numbers
// that do not carry it.
func (s spec) cpuBound() bool { return !s.Stall }

func findWorkload(name string) (spec, bool) {
	for _, s := range workloads {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// quick shrinks a workload to a smoke test: one repetition of 30 timed
// frames. The numbers it prints are not estimates.
func (s spec) quick() spec {
	s.K = 1
	s.N = 30
	s.W = min(s.W, 10)
	if s.RefFrames > s.W+s.N/2 {
		s.RefFrames = s.W + s.N/2
	}
	return s
}

// config is the per-vehicle pipeline configuration. Every knob that moves
// a number is pinned here rather than inherited from a default.
func (s spec) config(seed int64, exec *dnn.Executor) adsim.PipelineConfig {
	cfg := adsim.DefaultPipelineConfig(adsim.Highway)
	cfg.Scene.Seed = seed
	cfg.Scene.Width, cfg.Scene.Height = 512, 256
	cfg.SurveyFrames = surveyFrames
	cfg.Detect.Executor = exec
	cfg.Track.Executor = exec
	if s.Stall {
		cfg.Detect.RunDNN = false
		cfg.Track.RunDNN = false
		cfg.Deadline = adsim.DeadlinePolicy{Enforce: true, Anytime: true}
	}
	return cfg
}

// stallInjector builds the stall_deadline fault injector. Its decisions
// are a pure function of (rule, seed, stage, frame), so the benchmark asks
// a second instance which frames were stalled when it checks the miss bits.
func stallInjector(seed int64) (*adsim.FaultInjector, error) {
	sc, err := adsim.ParseFaultScenario(stallRule, seed)
	if err != nil {
		return nil, err
	}
	return adsim.NewFaultInjector(sc)
}

// surveyMap surveys the shared prior map the fleet localizes against: the
// offline map-provider role, done once per repetition (inside setup_s).
func surveyMap(cfg adsim.PipelineConfig) (*slam.PriorMap, error) {
	base := slam.NewPriorMap()
	eng, err := slam.NewEngine(cfg.SLAM, base)
	if err != nil {
		return nil, err
	}
	gen, err := scene.New(cfg.Scene)
	if err != nil {
		return nil, err
	}
	for i := 0; i < surveyFrames; i++ {
		f := gen.Step()
		eng.Survey(f.Image, f.EgoPose)
	}
	return base, nil
}

// system is one freshly built instance of the program under test.
type system struct {
	// run drives the system to completion, handing every delivered frame
	// to onFrame (in order within a vehicle; concurrently across vehicles).
	run func(onFrame func(vehicle int, res adsim.RunnerResult))
	// stop ends admission early; in-flight frames still drain through run.
	stop      func()
	exec      *dnn.Executor
	tail      *adsim.TailScheduler
	pipelines []*adsim.Pipeline
}

// stageHook observes the start of every stage body of a fleet vehicle: the
// traced pass uses it (through the fleet's per-vehicle fault-injection
// seam, returning no fault) to learn which vehicle a stage goroutine
// belongs to. A solo run has one vehicle and needs no hook.
type stageHook func(vehicle int, stage string, frame int)

// build constructs the system for one repetition. sink and hook are nil on
// the end-to-end pass, which therefore never carries the tracer; hook is
// only installed on a fleet.
func (s spec) build(seed int64, sink adsim.TelemetrySink, hook stageHook) (*system, error) {
	if s.Vehicles > 1 {
		return s.buildFleet(seed, sink, hook)
	}
	exec := dnn.NewExecutor(workers)
	cfg := s.config(seed, exec)
	cfg.Telemetry = sink
	opts := adsim.RunnerOptions{InFlight: s.InFlight}
	sys := &system{exec: exec}
	if s.Stall {
		inj, err := stallInjector(seed)
		if err != nil {
			return nil, err
		}
		cfg.Inject = inj.Stage
		ts, err := adsim.NewTailScheduler(adsim.TailConfig{
			Target:        40 * time.Millisecond,
			InitialWindow: 1,
			Ladder:        []int{64, 48, 32},
		})
		if err != nil {
			return nil, err
		}
		opts.Tail = ts
		sys.tail = ts
	}
	p, err := adsim.NewPipelineFromConfig(cfg)
	if err != nil {
		return nil, err
	}
	r, err := adsim.NewRunner(p, opts)
	if err != nil {
		return nil, err
	}
	sys.pipelines = []*adsim.Pipeline{p}
	sys.stop = r.Stop
	frames := s.W + s.N
	sys.run = func(onFrame func(int, adsim.RunnerResult)) {
		for res := range r.Run(frames) {
			onFrame(0, res)
		}
	}
	return sys, nil
}

func (s spec) buildFleet(seed int64, sink adsim.TelemetrySink, hook stageHook) (*system, error) {
	exec := dnn.NewBatchExecutor(workers)
	cfg := s.config(seed, exec)
	base, err := surveyMap(cfg)
	if err != nil {
		return nil, err
	}
	cfg.SurveyFrames = 0
	cfg.Telemetry = sink
	fc := adsim.FleetConfig{
		Vehicles:  s.Vehicles,
		Config:    cfg,
		InFlight:  s.InFlight,
		Executor:  exec,
		SharedMap: base,
		PhaseLock: true,
	}
	if hook != nil {
		fc.Injects = make(map[int]func(string, int) (time.Duration, error), s.Vehicles)
		for v := 0; v < s.Vehicles; v++ {
			fc.Injects[v] = func(stage string, frame int) (time.Duration, error) {
				hook(v, stage, frame)
				return 0, nil
			}
		}
	}
	f, err := adsim.NewFleet(fc)
	if err != nil {
		return nil, err
	}
	f.Warm()
	sys := &system{exec: exec, stop: f.Stop}
	for v := 0; v < s.Vehicles; v++ {
		sys.pipelines = append(sys.pipelines, f.Vehicle(v))
	}
	// Each vehicle is asked for more than it will deliver: the window
	// closes after Vehicles·N deliveries and stop drains the rest, so all
	// streams are live for the whole timed window.
	frames := s.W + 2*s.N
	sys.run = func(onFrame func(int, adsim.RunnerResult)) {
		f.Run(frames, onFrame)
	}
	return sys, nil
}

// reference runs the workload's first RefFrames frames per vehicle through
// a sequential Pipeline.Step loop — the executor every other one must
// match bitwise — and returns the per-frame output hashes. Built once per
// process, outside all timing.
func (s spec) reference(seed int64) ([][]frameHash, error) {
	if s.RefFrames == 0 {
		return nil, nil
	}
	exec := dnn.NewExecutor(workers)
	cfg := s.config(seed, exec)
	var base *slam.PriorMap
	if s.Vehicles > 1 {
		var err error
		if base, err = surveyMap(cfg); err != nil {
			return nil, err
		}
		cfg.SurveyFrames = 0
	}
	ref := make([][]frameHash, s.Vehicles)
	d := newDigester()
	for v := 0; v < s.Vehicles; v++ {
		vcfg := cfg
		vcfg.Scene.Seed = seed + int64(v)
		if base != nil {
			vcfg.MapStore = slam.NewVehicleStore(v, base)
		}
		p, err := adsim.NewPipelineFromConfig(vcfg)
		if err != nil {
			return nil, err
		}
		for i := 0; i < s.RefFrames; i++ {
			res, err := p.Step()
			if err != nil {
				return nil, fmt.Errorf("reference vehicle %d frame %d: %w", v, i, err)
			}
			ref[v] = append(ref[v], d.frame(&res))
		}
	}
	return ref, nil
}

// detMissed reports whether the frame's DET stage blew its budget.
func detMissed(res *adsim.RunnerResult) bool { return res.Degraded.Has(pipeline.StageDet) }
