package adsim

// One benchmark per paper table and figure: each regenerates the
// corresponding experiment end to end (workload generation, platform-model
// sampling, aggregation, rendering), so `go test -bench=.` re-runs the full
// evaluation and reports how long each reproduction takes.
//
// Sizing note: benchmarks use a reduced frame count per iteration (the
// experiment drivers' tails converge well before the default 40k frames);
// `cmd/adbench` runs the full-size versions.

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

// benchOpts sizes experiments for benchmarking iterations.
func benchOpts() ExperimentOptions {
	return ExperimentOptions{Frames: 20000, Seed: 1, NativeFrames: 4}
}

func benchmarkExperiment(b *testing.B, id string) {
	b.Helper()
	opts := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 1)
		if _, err := RunExperiment(id, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchmarkExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchmarkExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchmarkExperiment(b, "table3") }

// BenchmarkFig2 regenerates the driving-range-reduction analysis.
func BenchmarkFig2(b *testing.B) { benchmarkExperiment(b, "fig2") }

// BenchmarkFig6 regenerates the CPU per-component latency characterization.
func BenchmarkFig6(b *testing.B) { benchmarkExperiment(b, "fig6") }

// BenchmarkFig7 regenerates the cycle breakdown via native instrumentation.
func BenchmarkFig7(b *testing.B) { benchmarkExperiment(b, "fig7") }

// BenchmarkFig10 regenerates the per-platform acceleration results.
func BenchmarkFig10(b *testing.B) { benchmarkExperiment(b, "fig10") }

// BenchmarkFig11 regenerates the end-to-end configuration comparison.
func BenchmarkFig11(b *testing.B) { benchmarkExperiment(b, "fig11") }

// BenchmarkFig12 regenerates the end-to-end power analysis.
func BenchmarkFig12(b *testing.B) { benchmarkExperiment(b, "fig12") }

// BenchmarkFig13 regenerates the resolution scalability sweep.
func BenchmarkFig13(b *testing.B) { benchmarkExperiment(b, "fig13") }

// BenchmarkHeadline regenerates the 169x/10x/93x tail-reduction claim.
func BenchmarkHeadline(b *testing.B) { benchmarkExperiment(b, "headline") }

// BenchmarkNativePipelineFrame measures one full native end-to-end frame
// (all engines, DNNs enabled) — the reproduction's own Fig 6 analogue.
func BenchmarkNativePipelineFrame(b *testing.B) {
	cfg := DefaultPipelineConfig(Highway)
	cfg.Scene.Width, cfg.Scene.Height = 512, 256
	cfg.SurveyFrames = 20
	p, err := NewPipelineFromConfig(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkRunner measures the pipelined executor on the same workload as
// BenchmarkNativePipelineFrame: identical config and seed, but with four
// frames in flight so DET/LOC of frame N+1 overlap the back half of frame
// N and the conv/FC kernels shard across cores. It reports throughput and
// the P99.99 admission-to-delivery latency; the frames/s ratio against the
// sequential benchmark is the pipelining speedup on this machine.
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

// BenchmarkRunnerTail measures the closed-loop tail scheduler against a
// static in-flight window on a stall-injected workload: the same seeded
// scenario with DET stalled 32ms on three of every seven frames, run with
// deadline enforcement through a window-6 executor. The static/adaptive
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

// BenchmarkFleet measures vehicle-stream consolidation: four full native
// pipelines (DNNs on) sharing one executor, one network cache and one
// shared prior-map store, swept over core counts via GOMAXPROCS. The
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

// BenchmarkFleetCapacity is the capacity curve at the consolidation limit:
// eight full native pipelines (DNNs on) on one machine, swept across the
// three fleet operating modes. "plain" is the shared executor alone;
// "phase" adds the phase barrier, which paces co-resident vehicles' frame
// admission on one fleet beat; "admit" adds the frame-budget admission
// controller (100ms wall budget), which sheds whole streams until the
// delivered tail fits the budget. Compare p99.99-ms across modes for the
// budget story (admit must hold the windowed tail at or under budget where
// plain blows through it), and admitted for how many of the eight streams
// the controller sustains at run end. b.N is frames PER VEHICLE.
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
		// deep window at this population would put the 100ms budget out of
		// reach for any admitted set — queueing, not compute, would
		// dominate the tail the controller is trying to govern.
		fcfg.InFlight = 2
		fcfg.SharedMap = base
		// A small rolling window so the end-of-run tail reflects the
		// post-shed steady state rather than averaging in the admission
		// controller's settling transient. Sized to the admission decision
		// cadence (Epoch frames per admitted stream between decisions) so
		// each decision sees a window mostly refreshed since the last one —
		// a laggy window double-counts old pressure and over-sheds.
		fcfg.MonitorWindow = 64
		f, err := NewFleet(fcfg)
		if err != nil {
			b.Fatal(err)
		}
		f.Warm()
		// The reported tail is sampled from the live fleet monitor the
		// moment the first stream completes: at that instant the rolling
		// window holds exactly the steady-state population's deliveries.
		// Sampling at Wait instead would fold in the end-of-run drain,
		// where streams the controller had shed flush their remaining
		// frames all at once — a transient no admission policy governs.
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
		admitted := 0
		for _, vs := range rep.PerVehicle {
			if !vs.Shed {
				admitted++
			}
		}
		tail := rep.Fleet.TailMs
		if steadyTail >= 0 {
			tail = steadyTail
		}
		b.ReportMetric(rep.VehiclesPerSec, "vehicles/s")
		b.ReportMetric(tail, "p99.99-ms")
		b.ReportMetric(float64(admitted), "admitted")
	}

	b.Run("plain", func(b *testing.B) {
		run(b, FleetConfig{})
	})
	b.Run("phase", func(b *testing.B) {
		run(b, FleetConfig{PhaseLock: true})
	})
	b.Run("admit", func(b *testing.B) {
		run(b, FleetConfig{
			PhaseLock: true,
			Admission: &AdmissionConfig{
				Target: 100 * time.Millisecond,
				Epoch:  16,
				// Wider shed watermark than the default: shed only when
				// the tail is genuinely near budget, not at the
				// conservative 0.7 margin, so the cascade stops at the
				// largest admitted set the budget covers. The readmit
				// watermark is pinned BELOW one stream's queueing floor
				// (~2 frame times) so the controller parks there: on a
				// saturated host every upward probe's re-alignment
				// transient spikes the max-of-window tail past budget and
				// is immediately re-shed, which would make the reported
				// steady state depend on probe phase. Readmission dynamics
				// are pinned by the admission unit tests and the soak.
				High: 0.9,
				Low:  0.3,
			},
		})
	})
}

// BenchmarkTelemetryOverhead quantifies the cost of full instrumentation:
// the same pipelined Runner workload once with the no-op sink and once with
// a Collector plus live constraint Monitor attached. The issue's acceptance
// bar is the instrumented run staying within 5% frames/s of the no-op run;
// compare the sub-benchmarks' frames/s to verify.
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, sink TelemetrySink) {
		cfg := DefaultPipelineConfig(Highway)
		cfg.Scene.Width, cfg.Scene.Height = 512, 256
		cfg.SurveyFrames = 20
		cfg.Telemetry = sink
		p, err := NewPipelineFromConfig(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r, err := NewRunner(p, RunnerOptions{InFlight: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for res := range r.Run(b.N) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
	}
	b.Run("nop", func(b *testing.B) { run(b, nil) })
	b.Run("instrumented", func(b *testing.B) {
		col := NewTelemetryCollector(0)
		mon := NewConstraintMonitor(ConstraintMonitorConfig{})
		run(b, MultiSink(col, mon))
		if col.Frames() != int64(b.N) {
			b.Fatalf("collector saw %d frames, want %d", col.Frames(), b.N)
		}
	})
}

// BenchmarkSimulatedFrame measures the cost of one simulated frame sample
// across the three engines.
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

// BenchmarkSceneFrame measures synthetic frame generation at KITTI size.
func BenchmarkSceneFrame(b *testing.B) {
	cfg := scene.DefaultConfig(scene.Urban)
	g, err := scene.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Step()
	}
}
