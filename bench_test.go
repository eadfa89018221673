package adsim

// Go benchmarks of the library's frame path and executors: one native
// frame, the pipelined Runner, the tail scheduler, the Fleet, telemetry's
// overhead, one simulated frame and one scene frame. `make bench-smoke`
// runs each once; performance numbers come from `bash bench/run.sh`
// (bench/README.md). The paper's tables and figures are regenerated by
// `cmd/adbench`, and internal/experiment's tests pin them.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"adsim/internal/accel"
	"adsim/internal/pipeline"
	"adsim/internal/scene"
	"adsim/internal/slam"
)

// BenchmarkRunner measures the pipelined executor with four frames in
// flight, so DET/LOC of frame N+1 overlap the back half of frame N. It
// reports throughput and the P99.99 admission-to-delivery latency.
func BenchmarkRunner(b *testing.B) {
	cfg := DefaultPipelineConfig(Highway)
	cfg.Scene.Width, cfg.Scene.Height = 512, 256
	cfg.SurveyFrames = 20
	p, err := NewPipelineFromConfig(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRunner(p, RunnerOptions{InFlight: 4})
	if err != nil {
		b.Fatal(err)
	}
	wall := NewDistribution(b.N)
	b.ResetTimer()
	for res := range r.Run(b.N) {
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		wall.Add(float64(res.Wall) / 1e6)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
	b.ReportMetric(wall.P9999(), "p99.99-ms")
}

// BenchmarkRunnerTail measures the tail scheduler's win on the wall clock,
// static window against adaptive, which bench/ (stall_deadline runs the
// scheduled side only) and the virtual-clock tail study cannot show: the
// same seeded scenario with DET stalled 32ms on three of every seven
// frames, run with deadline enforcement through a window-6 executor. The
// static/adaptive
// p99.99-ms spread is the scheduler's delivered-latency win; ns/op tracks
// the (unchanged) throughput cost of admission control. Functional
// perception keeps the injected stalls — not machine-dependent DNN time —
// the workload under measurement.
func BenchmarkRunnerTail(b *testing.B) {
	for _, mode := range []string{"static", "adaptive"} {
		adaptive := mode == "adaptive"
		b.Run(mode, func(b *testing.B) {
			cfg := DefaultPipelineConfig(Highway)
			cfg.Scene.Width, cfg.Scene.Height = 384, 192
			cfg.SurveyFrames = 20
			cfg.Detect.RunDNN = false
			cfg.Track.RunDNN = false
			cfg.Deadline = DeadlinePolicy{Enforce: true, Anytime: adaptive}
			sc, err := ParseFaultScenario("DET:delay=32ms:every=7:burst=3", 1)
			if err != nil {
				b.Fatal(err)
			}
			inj, err := NewFaultInjector(sc)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Inject = inj.Stage
			p, err := NewPipelineFromConfig(cfg)
			if err != nil {
				b.Fatal(err)
			}
			opts := RunnerOptions{InFlight: 6}
			if adaptive {
				ts, err := NewTailScheduler(TailConfig{
					Target:        40 * time.Millisecond,
					InitialWindow: 1,
					Ladder:        []int{64, 48, 32},
				})
				if err != nil {
					b.Fatal(err)
				}
				opts.Tail = ts
			}
			r, err := NewRunner(p, opts)
			if err != nil {
				b.Fatal(err)
			}
			wall := NewDistribution(b.N)
			b.ResetTimer()
			for res := range r.Run(b.N) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				wall.Add(float64(res.Wall) / 1e6)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
			b.ReportMetric(wall.P9999(), "p99.99-ms")
		})
	}
}

// BenchmarkFleet measures how fleet consolidation scales with core count,
// which bench/ runs at one width: four full native pipelines (DNNs on)
// sharing one executor, one network cache and one shared prior-map store,
// swept over core counts via GOMAXPROCS. The
// vehicles/s metric is the consolidation headroom — how many real-time
// vehicle streams (at the scenario frame rate) one machine of that width
// sustains; compare it across the cores= sub-benchmarks for the scaling
// curve. b.N is frames PER VEHICLE, so total work per iteration is 4x.
func BenchmarkFleet(b *testing.B) {
	const vehicles = 4
	cfg := DefaultPipelineConfig(Highway)
	cfg.Scene.Width, cfg.Scene.Height = 512, 256
	cfg.SurveyFrames = 0 // all vehicles share the base surveyed below

	base := slam.NewPriorMap()
	eng, err := slam.NewEngine(cfg.SLAM, base)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := scene.New(cfg.Scene)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		f := gen.Step()
		eng.Survey(f.Image, f.EgoPose)
	}

	for _, cores := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			if cores > runtime.NumCPU() {
				b.Skipf("host has %d CPUs: cores=%d would repeat the cores=%d line", runtime.NumCPU(), cores, runtime.NumCPU())
			}
			prev := runtime.GOMAXPROCS(cores)
			defer runtime.GOMAXPROCS(prev)
			f, err := NewFleet(FleetConfig{
				Vehicles:  vehicles,
				Config:    cfg,
				InFlight:  4,
				SharedMap: base,
			})
			if err != nil {
				b.Fatal(err)
			}
			// Pre-pay the one-time cold-start costs (detector ladder weight
			// init, shard-cache fill, map view construction) so the timed
			// region measures steady-state consolidation, not first-frame
			// skew.
			f.Warm()
			b.ResetTimer()
			rep := f.Run(b.N, func(v int, res RunnerResult) {
				if res.Err != nil {
					b.Error(res.Err)
				}
			})
			b.ReportMetric(rep.VehiclesPerSec, "vehicles/s")
			b.ReportMetric(rep.FramesPerSec, "frames/s")
			b.ReportMetric(rep.Fleet.TailMs, "p99.99-ms")
		})
	}
}

// BenchmarkFleetCapacity measures the phase barrier against free-running
// streams at eight vehicles, where bench/'s fleet_batched runs three,
// phase-locked only: eight full native pipelines (DNNs on) on one machine.
// "plain" is the shared executor alone; "phase" adds the phase barrier,
// which paces co-resident vehicles' frame admission on one fleet beat.
// Compare vehicles/s and p99.99-ms across the two. b.N is frames PER
// VEHICLE.
func BenchmarkFleetCapacity(b *testing.B) {
	const vehicles = 8
	cfg := DefaultPipelineConfig(Highway)
	cfg.Scene.Width, cfg.Scene.Height = 512, 256
	cfg.SurveyFrames = 0 // all vehicles share the base surveyed below

	base := slam.NewPriorMap()
	eng, err := slam.NewEngine(cfg.SLAM, base)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := scene.New(cfg.Scene)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		f := gen.Step()
		eng.Survey(f.Image, f.EgoPose)
	}

	run := func(b *testing.B, fcfg FleetConfig) {
		fcfg.Vehicles = vehicles
		fcfg.Config = cfg
		// A shallow window: delivered wall latency in steady state is
		// roughly InFlight x the stream's inter-delivery interval, so a
		// deep window at this population would make queueing, not compute,
		// the tail.
		fcfg.InFlight = 2
		fcfg.SharedMap = base
		// A small rolling window so the reported tail is the steady
		// state's, not the warm-up's.
		fcfg.MonitorWindow = 64
		f, err := NewFleet(fcfg)
		if err != nil {
			b.Fatal(err)
		}
		f.Warm()
		// The reported tail is sampled from the live fleet monitor the
		// moment the first stream completes: at that instant the rolling
		// window holds exactly the steady-state population's deliveries,
		// not the end-of-run drain.
		var mu sync.Mutex
		perVehicle := make(map[int]int)
		steadyTail := -1.0
		b.ResetTimer()
		rep := f.Run(b.N, func(v int, res RunnerResult) {
			if res.Err != nil {
				b.Error(res.Err)
			}
			mu.Lock()
			perVehicle[v]++
			if perVehicle[v] == b.N && steadyTail < 0 {
				steadyTail = f.Snapshot().TailMs
			}
			mu.Unlock()
		})
		tail := rep.Fleet.TailMs
		if steadyTail >= 0 {
			tail = steadyTail
		}
		b.ReportMetric(rep.VehiclesPerSec, "vehicles/s")
		b.ReportMetric(tail, "p99.99-ms")
	}

	b.Run("plain", func(b *testing.B) {
		run(b, FleetConfig{})
	})
	b.Run("phase", func(b *testing.B) {
		run(b, FleetConfig{PhaseLock: true})
	})
}

// BenchmarkTelemetryOverhead measures what full instrumentation costs: the
// frames/s of a pipelined Runner whose pipeline feeds a Collector and a
// live constraint Monitor, over the frames/s of the same workload on the
// no-op sink. Both pipelines are built once. Each of telemetryRounds
// rounds runs b.N frames through each on a fresh Runner, and the side that
// goes first flips every round, so neither owns the host's quiet or busy
// turns. It reports the median instrumented/nop ratio ("instr/nop") and
// its interquartile spread ("instr/nop-iqr"). The bar: a median ratio of at
// least 0.95, i.e. instrumentation costs at most 5 % of frames/s, judged
// only when the spread is narrower than the distance to 0.95. Give each
// round enough frames to span host noise, e.g. -benchtime 40x.
func BenchmarkTelemetryOverhead(b *testing.B) {
	const telemetryRounds, warm = 8, 4
	build := func(sink TelemetrySink) *Pipeline {
		cfg := DefaultPipelineConfig(Highway)
		cfg.Scene.Width, cfg.Scene.Height = 512, 256
		cfg.SurveyFrames = 20
		cfg.Telemetry = sink
		p, err := NewPipelineFromConfig(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	// fps runs frames frames through p on a fresh Runner and returns their
	// frames/s; the result channel's close hands p back.
	fps := func(p *Pipeline, frames int) float64 {
		r, err := NewRunner(p, RunnerOptions{InFlight: 4})
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		for res := range r.Run(frames) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
		return float64(frames) / time.Since(start).Seconds()
	}
	col := NewTelemetryCollector(0)
	nop := build(nil)
	instr := build(MultiSink(col, NewConstraintMonitor(ConstraintMonitorConfig{})))
	fps(nop, warm)
	fps(instr, warm)
	b.ResetTimer()
	ratios := NewDistribution(telemetryRounds)
	for round := range telemetryRounds {
		var nopFPS, instrFPS float64
		if round%2 == 0 {
			nopFPS, instrFPS = fps(nop, b.N), fps(instr, b.N)
		} else {
			instrFPS, nopFPS = fps(instr, b.N), fps(nop, b.N)
		}
		ratios.Add(instrFPS / nopFPS)
	}
	b.StopTimer()
	if want := int64(warm + telemetryRounds*b.N); col.Frames() != want {
		b.Fatalf("collector saw %d frames, want %d", col.Frames(), want)
	}
	b.ReportMetric(ratios.Quantile(0.5), "instr/nop")
	b.ReportMetric(ratios.Quantile(0.75)-ratios.Quantile(0.25), "instr/nop-iqr")
}

// BenchmarkSimulatedFrame measures the analytical model's cost per
// simulated frame (pipeline.Simulate), which no bench/ workload runs.
func BenchmarkSimulatedFrame(b *testing.B) {
	m := accel.NewModel()
	frames := 1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Simulate(m, pipeline.SimConfig{
			Assignment: pipeline.Uniform(accel.ASIC),
			Frames:     frames,
			Seed:       int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*frames)/b.Elapsed().Seconds(), "frames/s")
}
