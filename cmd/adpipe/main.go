// Command adpipe runs the native end-to-end autonomous driving pipeline on
// a synthetic scenario and reports per-stage statistics.
//
// Usage:
//
//	adpipe -scenario urban -frames 50
//	adpipe -scenario highway -frames 100 -dnn=false -v
//	GOMAXPROCS=8 adpipe -scenario highway -frames 200 -inflight 4
//	adpipe -scenario urban -frames 100 -inflight 3 -telemetry json
//	adpipe -scenario urban -frames 200 -deadline 100ms
//	adpipe -frames 200 -deadline 100ms -fault 'DET:delay=30ms:every=5,SRC:drop:every=50'
//	adpipe -scenario rush-hour -frames 300 -deadline 100ms     # library program + scorecard
//	adpipe -scenario ./my.adsc -base highway -seed 7 -frames 200
//	adpipe -list-scenarios
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"adsim"
	"adsim/internal/pipeline"
	"adsim/internal/scene"
	"adsim/internal/stats"
)

func main() {
	var (
		scenario = flag.String("scenario", "urban", "scenario: urban, highway, a library program name (see -list-scenarios), or a path to a .adsc program file")
		base     = flag.String("base", "urban", "base world kind a scenario program phases over: urban or highway")
		seed     = flag.Int64("seed", 0, "scene seed override (0 keeps the scenario default)")
		list     = flag.Bool("list-scenarios", false, "list the committed scenario-program library and exit")
		frames   = flag.Int("frames", 50, "frames to process")
		width    = flag.Int("width", 512, "frame width")
		height   = flag.Int("height", 256, "frame height")
		survey   = flag.Int("survey", 60, "prior-map survey frames")
		dnn      = flag.Bool("dnn", true, "execute the native DNNs (slower, full instrumentation)")
		inflight = flag.Int("inflight", 1, "frames in flight: 1 is the sequential schedule, >1 pipelines frames across the stage graph")
		verbose  = flag.Bool("v", false, "print per-frame results")
		hist     = flag.Bool("hist", false, "print an end-to-end latency histogram")
		trace    = flag.String("trace", "", "write a JSON-lines trace of every frame to this file")
		telem    = flag.String("telemetry", "off", "telemetry summary format: json, csv or off; also enables the live constraint verdict")
		deadline = flag.Duration("deadline", 0, "enforce per-stage deadline budgets split from this frame deadline; budget-blown stages fall back to degraded modes (0 disables)")
		tailTgt  = flag.Duration("tail", 0, "steer the rolling P99.99 toward this target with the closed-loop tail scheduler: adapts the -inflight admission window and steps DET resolution down -ladder under pressure (0 disables)")
		anytime  = flag.Bool("anytime", false, "let a budget-blown DET commit a coarser on-time detection set (anytime early exit) instead of shedding it; requires -deadline")
		ladder   = flag.String("ladder", "", "comma-separated strictly-descending DET input sizes for -tail's resolution ladder (default: derived from the detector's input size)")
		fault    = flag.String("fault", "", "seeded fault scenario, e.g. 'DET:delay=30ms:every=5,SRC:drop:every=50'")
		faultSd  = flag.Int64("fault-seed", 1, "seed for the fault scenario's probabilistic rules")
	)
	flag.Parse()

	if *list {
		for _, n := range adsim.ScenarioLibrary() {
			fmt.Println(n)
		}
		return
	}

	kind := adsim.Urban
	var prog *adsim.ScenarioProgram
	switch *scenario {
	case "urban":
	case "highway":
		kind = adsim.Highway
	default:
		p, err := adsim.ResolveScenarioProgram(*scenario)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adpipe: %v\n", err)
			os.Exit(2)
		}
		prog = p
		switch *base {
		case "urban":
		case "highway":
			kind = adsim.Highway
		default:
			fmt.Fprintf(os.Stderr, "adpipe: unknown -base %q (want urban or highway)\n", *base)
			os.Exit(2)
		}
	}

	if *inflight < 1 {
		fmt.Fprintf(os.Stderr, "adpipe: -inflight must be >= 1\n")
		os.Exit(2)
	}
	if *anytime && *deadline <= 0 {
		fmt.Fprintf(os.Stderr, "adpipe: -anytime needs -deadline enforcement to exit from\n")
		os.Exit(2)
	}

	cfg := adsim.DefaultPipelineConfig(kind)
	cfg.Scene.Width, cfg.Scene.Height = *width, *height
	cfg.SurveyFrames = *survey
	cfg.Detect.RunDNN = *dnn
	cfg.Track.RunDNN = *dnn
	if prog != nil {
		cfg.Scene = prog.Configure(cfg.Scene)
	}
	if *seed != 0 {
		cfg.Scene.Seed = *seed
	}
	// Static validation runs before any frame renders; warnings (silent
	// parameter coercions) surface here, hard errors below via the pipeline.
	if warns, err := cfg.Scene.Validate(); err == nil {
		for _, w := range warns {
			fmt.Fprintf(os.Stderr, "adpipe: warning: %s\n", w)
		}
	}

	var reg *adsim.TelemetryRegistry
	if *deadline > 0 {
		reg = adsim.NewTelemetryRegistry(*frames)
		cfg.Deadline = adsim.DeadlinePolicy{Enforce: true, FrameBudget: *deadline, Anytime: *anytime}
		cfg.Metrics = reg
	}
	var faults adsim.FaultScenario
	if *fault != "" {
		if prog != nil && len(prog.Faults) > 0 {
			fmt.Fprintf(os.Stderr, "adpipe: program %q carries its own fault rules; drop -fault\n", prog.Name)
			os.Exit(2)
		}
		sc, err := adsim.ParseFaultScenario(*fault, *faultSd)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adpipe: %v\n", err)
			os.Exit(2)
		}
		faults = sc
	} else if prog != nil {
		faults = adsim.FaultScenarioFromProgram(prog, *faultSd)
	}
	faulting := len(faults.Rules) > 0
	if faulting {
		inj, err := adsim.NewFaultInjector(faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adpipe: %v\n", err)
			os.Exit(2)
		}
		cfg.Inject = inj.Stage
	}

	var col *adsim.TelemetryCollector
	var mon *adsim.ConstraintMonitor
	switch *telem {
	case "json", "csv":
		col = adsim.NewTelemetryCollector(*frames)
		mon = adsim.NewConstraintMonitor(adsim.ConstraintMonitorConfig{})
		cfg.Telemetry = adsim.MultiSink(col, mon)
	case "off":
	default:
		fmt.Fprintf(os.Stderr, "adpipe: unknown -telemetry format %q (want json, csv or off)\n", *telem)
		os.Exit(2)
	}

	p, err := adsim.NewPipelineFromConfig(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adpipe: %v\n", err)
		os.Exit(1)
	}

	var ts *adsim.TailScheduler
	var rungs []int
	if *tailTgt > 0 {
		rungs, err = tailLadder(*ladder, cfg.Detect.InputSize)
		if err == nil {
			ts, err = adsim.NewTailScheduler(adsim.TailConfig{
				Target:  *tailTgt,
				Ladder:  rungs,
				Metrics: reg,
			})
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "adpipe: %v\n", err)
			os.Exit(2)
		}
	}

	var tw *pipeline.TraceWriter
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adpipe: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		tw = pipeline.NewTraceWriter(f)
	}

	e2e := adsim.NewDistribution(*frames)
	var e2eSamples []float64
	det := adsim.NewDistribution(*frames)
	tra := adsim.NewDistribution(*frames)
	loc := adsim.NewDistribution(*frames)
	tracked := 0
	degraded := 0
	faulted := 0

	wall := adsim.NewDistribution(*frames)

	// A scenario program gets a per-scenario constraint scorecard: every
	// delivered frame's end-to-end and per-stage latencies fold into one
	// replayable verdict.
	var card *adsim.ConstraintScorecard
	if prog != nil {
		card = adsim.NewConstraintScorecard(prog.Name, cfg.Scene.Seed, cfg.Scene.FPS)
	}

	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	record := func(i int, res adsim.FrameResult) {
		if card != nil {
			card.Observe(ms(res.Timing.E2E), map[string]float64{
				"DET": ms(res.Timing.Det), "TRA": ms(res.Timing.Tra), "LOC": ms(res.Timing.Loc),
			}, res.Degraded.Any())
		}
		e2e.Add(ms(res.Timing.E2E))
		e2eSamples = append(e2eSamples, ms(res.Timing.E2E))
		det.Add(ms(res.Timing.Det))
		tra.Add(ms(res.Timing.Tra))
		loc.Add(ms(res.Timing.Loc))
		if res.Pose.Tracked {
			tracked++
		}
		if res.Degraded.Any() {
			degraded++
		}
		if tw != nil {
			if err := tw.Write(pipeline.NewTraceRecord(res)); err != nil {
				fmt.Fprintf(os.Stderr, "adpipe: %v\n", err)
				os.Exit(1)
			}
		}
		if *verbose {
			fmt.Printf("frame %3d: %2d det, %2d tracks, pose z=%7.1f (tracked=%v reloc=%v), plan=%v, e2e=%.1fms, degraded=%v\n",
				i, len(res.Detections), len(res.Tracks), res.Pose.Pose.Z,
				res.Pose.Tracked, res.Pose.Relocalized, res.Plan.Decision, ms(res.Timing.E2E), res.Degraded)
		}
	}
	// Under fault injection, dropped frames and hard stage faults are part
	// of the scenario — count them and keep driving instead of exiting.
	frameErr := func(i int, err error) {
		if !faulting {
			fmt.Fprintf(os.Stderr, "adpipe: frame %d: %v\n", i, err)
			os.Exit(1)
		}
		if card != nil {
			card.ObserveError()
		}
		faulted++
		if *verbose {
			fmt.Printf("frame %3d: FAULT %v\n", i, err)
		}
	}

	if prog != nil {
		fmt.Printf("scenario program %q (seed %d), base world %s\n",
			prog.Name, cfg.Scene.Seed, scene.Kind(kind))
	}
	fmt.Printf("running %d %s frames at %dx%d (dnn=%v, survey=%d, inflight=%d)\n",
		*frames, scene.Kind(kind), *width, *height, *dnn, *survey, *inflight)
	start := time.Now()
	r, err := adsim.NewRunner(p, adsim.RunnerOptions{InFlight: *inflight, Tail: ts})
	if err != nil {
		fmt.Fprintf(os.Stderr, "adpipe: %v\n", err)
		os.Exit(1)
	}
	for res := range r.Run(*frames) {
		if res.Err != nil {
			frameErr(res.Frame.Index, res.Err)
			continue
		}
		wall.Add(ms(res.Wall))
		record(res.Frame.Index, res.FrameResult)
	}
	elapsed := time.Since(start)

	fmt.Printf("\nstage latency (ms, native execution on this machine):\n")
	fmt.Printf("  DET  %s\n", det.Summary())
	fmt.Printf("  TRA  %s\n", tra.Summary())
	fmt.Printf("  LOC  %s\n", loc.Summary())
	fmt.Printf("  E2E  %s\n", e2e.Summary())
	fmt.Printf("  WALL %s (admission to delivery)\n", wall.Summary())
	fmt.Printf("throughput %.1f frames/s (%d frames in %v)\n",
		float64(*frames)/elapsed.Seconds(), *frames, elapsed.Round(time.Millisecond))
	fmt.Printf("localized %d/%d frames; relocalizations=%d, loop closures=%d, map=%v\n",
		tracked, *frames, p.Localizer().Relocalizations(),
		p.Localizer().LoopClosures(), p.Localizer().Map())

	if card != nil {
		fmt.Printf("\nscenario scorecard:\n%s", card.Report())
	}

	if *deadline > 0 {
		fmt.Printf("\ndeadline enforcement (frame budget %v):\n", *deadline)
		fmt.Printf("  degraded frames  %d/%d\n", degraded, *frames)
		if faulting {
			fmt.Printf("  faulted frames   %d/%d (dropped or hard stage faults)\n", faulted, *frames)
		}
		fmt.Printf("  budget misses    %d total\n", reg.Counter("deadline/miss").Value())
		for _, name := range reg.CounterNames() {
			if strings.HasPrefix(name, "deadline/miss/") {
				if v := reg.Counter(name).Value(); v > 0 {
					fmt.Printf("    %-14s %d\n", strings.TrimPrefix(name, "deadline/miss/"), v)
				}
			}
		}
	} else if faulting {
		fmt.Printf("faulted frames %d/%d (dropped or hard stage faults)\n", faulted, *frames)
	}

	if ts != nil {
		fmt.Printf("\ntail scheduler (target %v):\n", *tailTgt)
		fmt.Printf("  window      now %d, min %d (ceiling %d)\n",
			ts.WindowLimit(), ts.MinWindowLimit(), *inflight)
		fmt.Printf("  resolution  now %d, deepest rung %d of ladder %v\n",
			ts.InputSize(), ts.MaxRungDepth(), rungs)
		fmt.Printf("  rolling tail monitor:\n")
		for _, line := range strings.Split(strings.TrimRight(ts.Monitor().Snapshot().String(), "\n"), "\n") {
			fmt.Printf("    %s\n", line)
		}
	}

	if col != nil {
		fmt.Printf("\nper-stage telemetry (queue wait vs execute):\n")
		var werr error
		switch *telem {
		case "json":
			werr = col.WriteJSON(os.Stdout)
		case "csv":
			werr = col.WriteCSV(os.Stdout)
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "adpipe: %v\n", werr)
			os.Exit(1)
		}
		fmt.Printf("\nlive constraint verdict (rolling window):\n%s", mon.Snapshot())
	}

	if tw != nil {
		fmt.Printf("wrote %d trace records to %s\n", tw.Count(), *trace)
	}
	if *hist && len(e2eSamples) > 0 {
		h := stats.NewHistogram(0, e2e.Max()*1.05, 20)
		for _, v := range e2eSamples {
			h.Add(v)
		}
		fmt.Printf("\nend-to-end latency histogram (ms):\n%s", h.Render(48))
	}
}

// tailLadder parses -ladder, or derives a short descending ladder from the
// detector's input size: each rung three quarters of the last, floored to a
// multiple of 16, never below 32. The scheduler validates the result.
func tailLadder(spec string, base int) ([]int, error) {
	if spec == "" {
		rungs := []int{base}
		for last := base; ; {
			next := last * 3 / 4 / 16 * 16
			if next < 32 || next >= last {
				break
			}
			rungs = append(rungs, next)
			last = next
		}
		return rungs, nil
	}
	parts := strings.Split(spec, ",")
	rungs := make([]int, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -ladder rung %q", part)
		}
		rungs = append(rungs, v)
	}
	return rungs, nil
}
