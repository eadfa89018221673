// Command adpipe runs the native end-to-end autonomous driving pipeline on
// synthetic scenarios. Without -vehicles it drives one Runner and reports
// per-stage statistics. With -vehicles N it multiplexes N seeded vehicle
// streams onto one executor (the cores split evenly across the vehicles),
// one copy of the network weights and one prior-map store, and reports the
// fleet verdict: fleet P99.99, vehicles/s and a per-vehicle scorecard. A
// flag that only one path honours exits 2 on the other.
//
// Usage:
//
//	adpipe -scenario urban -frames 50
//	adpipe -scenario highway -frames 100 -dnn=false -v
//	GOMAXPROCS=8 adpipe -scenario highway -frames 200 -inflight 4
//	adpipe -scenario urban -frames 100 -inflight 3 -telemetry json
//	adpipe -frames 200 -deadline 100ms -fault 'DET:delay=30ms:every=5,SRC:drop:every=50'
//	adpipe -scenario rush-hour -frames 300 -deadline 100ms     # library program + scorecard
//	adpipe -scenario ./my.adsc -base highway -seed 7 -frames 200
//	adpipe -list-scenarios
//
//	adpipe -vehicles 4 -frames 50 -inflight 3
//	adpipe -vehicles 4 -frames 200 -deadline 100ms -fault 'DET:delay=30ms:every=5' -fault-vehicle 1
//	adpipe -vehicles 4 -frames 100 -assign '1=cut-in,3=blackout'   # per-vehicle scenario programs
//	adpipe -vehicles 8 -frames 200 -phase -admission               # capacity mode: phase-locked pacing + budget shedding
//	adpipe -vehicles 4 -frames 100 -add-at 50 -remove-at 100 -remove-vehicle 1   # runtime churn
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adsim"
	"adsim/internal/pipeline"
	"adsim/internal/scene"
	"adsim/internal/slam"
	"adsim/internal/stats"
)

var (
	scenario = flag.String("scenario", "urban", "scenario: urban, highway, a library program name (see -list-scenarios), or a path to a .adsc program file; a fleet takes programs per vehicle with -assign")
	seed     = flag.Int64("seed", 0, "scene seed override (0 keeps the scenario default); fleet vehicle i drives seed+i")
	list     = flag.Bool("list-scenarios", false, "list the committed scenario-program library and exit")
	frames   = flag.Int("frames", 50, "frames to process per vehicle")
	width    = flag.Int("width", 512, "frame width")
	height   = flag.Int("height", 256, "frame height")
	survey   = flag.Int("survey", 60, "prior-map survey frames")
	dnn      = flag.Bool("dnn", true, "execute the native DNNs (slower, full instrumentation)")
	inflight = flag.Int("inflight", 1, "frames in flight per Runner: 1 is the sequential schedule, >1 pipelines frames across the stage graph")
	verbose  = flag.Bool("v", false, "print per-frame results")
	deadline = flag.Duration("deadline", 0, "enforce per-stage deadline budgets split from this frame deadline; budget-blown stages fall back to degraded modes (0 disables)")
	fault    = flag.String("fault", "", "seeded fault scenario injected into vehicle -fault-vehicle, e.g. 'DET:delay=30ms:every=5,SRC:drop:every=50'")
	faultSd  = flag.Int64("fault-seed", 1, "seed for the fault scenario's probabilistic rules")

	// Runner path only.
	base    = flag.String("base", "urban", "base world kind a scenario program phases over: urban or highway")
	hist    = flag.Bool("hist", false, "print an end-to-end latency histogram")
	trace   = flag.String("trace", "", "write a JSON-lines trace of every frame to this file")
	telem   = flag.String("telemetry", "off", "telemetry summary format: json, csv or off; also enables the live constraint verdict")
	tailTgt = flag.Duration("tail", 0, "closed-loop tail scheduler target: when a 16-frame period's worst frame latency nears it, shrink the -inflight admission window and then step DET resolution down -ladder; recover on calm periods (0 disables)")
	anytime = flag.Bool("anytime", false, "let a budget-blown DET commit a coarser on-time detection set (anytime early exit) instead of shedding it; requires -deadline")
	ladder  = flag.String("ladder", "", "comma-separated strictly-descending DET input sizes for -tail's resolution ladder (default: derived from the detector's input size)")

	// Fleet path only.
	vehicles = flag.Int("vehicles", 1, "multiplex this many vehicle streams onto shared engines; giving it (even 1) selects the fleet path")
	assign   = flag.String("assign", "", "per-vehicle scenario programs as comma-separated INDEX=PROGRAM pairs (library name or .adsc path), e.g. '1=cut-in,3=blackout'; assigned vehicles keep their derived seed and the program's fault rules")
	admit    = flag.Bool("admission", false, "frame-budget admission control: shed whole vehicle streams (worst first, ties toward the highest vehicle ID) when a 16-frame period's worst frame latency nears the budget, readmit with hysteresis when it subsides")
	admitTgt = flag.Duration("admission-target", 0, "admission frame budget each period's worst frame is judged against (0 = the paper's 100ms; implies -admission)")
	maxVeh   = flag.Int("max-vehicles", 0, "cap on concurrently admitted vehicle streams, enforced at registration and respected by readmits (0 = uncapped; implies -admission)")
	phase    = flag.Bool("phase", false, "phase-lock co-resident vehicles' frame admission: pace every stream on one fleet beat so none runs ahead of the others")
	addAt    = flag.Int("add-at", 0, "add one vehicle at runtime once this many total frames are delivered (0 disables)")
	removeAt = flag.Int("remove-at", 0, "remove vehicle -remove-vehicle at runtime once this many total frames are delivered (0 disables)")
	removeV  = flag.Int("remove-vehicle", 0, "vehicle index removed by -remove-at")
	faultVeh = flag.Int("fault-vehicle", 0, "vehicle index the -fault scenario is injected into (a Runner is vehicle 0)")
)

// soloOnly and fleetOnly name the flags that only one path honours.
var (
	soloOnly  = []string{"tail", "ladder", "anytime", "hist", "trace", "telemetry", "base"}
	fleetOnly = []string{"assign", "admission", "admission-target", "max-vehicles", "phase", "add-at", "remove-at", "remove-vehicle", "fault-vehicle"}
)

// worlds maps the built-in world names to their scene kinds; any other
// -scenario is a scenario program.
var worlds = map[string]adsim.ScenarioKind{"urban": adsim.Urban, "highway": adsim.Highway}

// injector is a vehicle's stage fault injector.
type injector = func(stage string, frame int) (time.Duration, error)

// fail reports an error and exits with code: 2 for a bad command line, 1
// for a run that failed.
func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "adpipe: "+format+"\n", args...)
	os.Exit(code)
}

// must returns v, or exits 1 on err: a run that cannot be built.
func must[T any](v T, err error) T {
	if err != nil {
		fail(1, "%v", err)
	}
	return v
}

// checkPath applies the path rule to the flags given on the command line
// (set) and the -scenario value: -vehicles selects the fleet path, and a
// flag that only the other path honours is an error, not silently ignored.
func checkPath(set map[string]bool, scenario string) error {
	fleet := set["vehicles"]
	for _, name := range fleetOnly {
		if set[name] && !fleet {
			return fmt.Errorf("-%s drives a fleet; it needs -vehicles", name)
		}
	}
	for _, name := range soloOnly {
		if set[name] && fleet {
			return fmt.Errorf("-%s drives one Runner; it cannot be used with -vehicles", name)
		}
	}
	_, world := worlds[scenario]
	if fleet && !world {
		return fmt.Errorf("-scenario %s is a program; a fleet drives urban or highway and takes programs per vehicle with -assign", scenario)
	}
	if set["base"] && world {
		return fmt.Errorf("-base picks a scenario program's world; -scenario %s is a world already", scenario)
	}
	return nil
}

func main() {
	flag.Parse()

	if *list {
		for _, n := range adsim.ScenarioLibrary() {
			fmt.Println(n)
		}
		return
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkPath(set, *scenario); err != nil {
		fail(2, "%v", err)
	}
	switch {
	case *vehicles < 1:
		fail(2, "-vehicles must be >= 1")
	case *inflight < 1:
		fail(2, "-inflight must be >= 1")
	case *anytime && *deadline <= 0:
		fail(2, "-anytime needs -deadline enforcement to exit from")
	case *ladder != "" && *tailTgt <= 0:
		fail(2, "-ladder is the tail scheduler's resolution ladder; it needs -tail")
	case set["fault-vehicle"] && *fault == "":
		fail(2, "-fault-vehicle picks the vehicle -fault is injected into; it needs -fault")
	case set["remove-vehicle"] && *removeAt <= 0:
		fail(2, "-remove-vehicle picks the vehicle -remove-at removes; it needs -remove-at")
	case *fault != "" && (*faultVeh < 0 || *faultVeh >= *vehicles):
		fail(2, "-fault-vehicle %d out of range [0,%d)", *faultVeh, *vehicles)
	case *removeAt > 0 && (*removeV < 0 || *removeV >= *vehicles):
		fail(2, "-remove-vehicle %d out of range [0,%d)", *removeV, *vehicles)
	}

	// progs holds the scenario program each vehicle drives: -scenario's on
	// a Runner (vehicle 0), -assign's on a fleet.
	progs := parseAssign(*assign)
	kind, world := worlds[*scenario]
	var prog *adsim.ScenarioProgram
	if !world {
		prog = resolveProgram(*scenario)
		progs[0] = prog
		var ok bool
		if kind, ok = worlds[*base]; !ok {
			fail(2, "unknown -base %q (want urban or highway)", *base)
		}
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
	if *deadline > 0 {
		cfg.Deadline = adsim.DeadlinePolicy{Enforce: true, FrameBudget: *deadline, Anytime: *anytime}
	}

	// Fault injectors by vehicle: -fault's scenario on -fault-vehicle, and a
	// scenario program's own rules on the vehicle driving it.
	injects := map[int]injector{}
	if *fault != "" {
		injects[*faultVeh] = newInjector(adsim.ParseFaultScenario(*fault, *faultSd))
	}
	for v, p := range progs {
		if len(p.Faults) == 0 {
			continue
		}
		if injects[v] != nil {
			fail(2, "vehicle %d has both -fault and program %q fault rules; drop -fault", v, p.Name)
		}
		injects[v] = newInjector(adsim.FaultScenarioFromProgram(p, *faultSd), nil)
	}

	if set["vehicles"] {
		runFleet(cfg, progs, injects)
		return
	}
	cfg.Inject = injects[0]
	runSolo(cfg, kind, prog)
}

// newInjector builds a stage injector from a fault scenario and the error
// parsing it returned; either error exits 2.
func newInjector(sc adsim.FaultScenario, err error) injector {
	var inj *adsim.FaultInjector
	if err == nil {
		inj, err = adsim.NewFaultInjector(sc)
	}
	if err != nil {
		fail(2, "%v", err)
	}
	return inj.Stage
}

// parseAssign resolves -assign's INDEX=PROGRAM pairs, each index within
// -vehicles and listed once.
func parseAssign(spec string) map[int]*adsim.ScenarioProgram {
	progs := map[int]*adsim.ScenarioProgram{}
	if spec == "" {
		return progs
	}
	for _, pair := range strings.Split(spec, ",") {
		idxStr, ref, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			fail(2, "bad -assign entry %q (want INDEX=PROGRAM)", pair)
		}
		idx, err := strconv.Atoi(strings.TrimSpace(idxStr))
		if err != nil || idx < 0 || idx >= *vehicles {
			fail(2, "bad -assign vehicle index %q (fleet has %d vehicles)", idxStr, *vehicles)
		}
		if progs[idx] != nil {
			fail(2, "-assign lists vehicle %d twice", idx)
		}
		progs[idx] = resolveProgram(strings.TrimSpace(ref))
	}
	return progs
}

func resolveProgram(ref string) *adsim.ScenarioProgram {
	p, err := adsim.ResolveScenarioProgram(ref)
	if err != nil {
		fail(2, "%v", err)
	}
	return p
}

// runSolo drives one Runner and prints its per-stage report.
func runSolo(cfg adsim.PipelineConfig, kind adsim.ScenarioKind, prog *adsim.ScenarioProgram) {
	faulting := cfg.Inject != nil
	var reg *adsim.TelemetryRegistry
	if *deadline > 0 {
		reg = adsim.NewTelemetryRegistry(*frames)
		cfg.Metrics = reg
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
		fail(2, "unknown -telemetry format %q (want json, csv or off)", *telem)
	}

	p := must(adsim.NewPipelineFromConfig(cfg))

	var ts *adsim.TailScheduler
	var rungs []int
	if *tailTgt > 0 {
		var err error
		rungs, err = tailLadder(*ladder, cfg.Detect.InputSize)
		if err == nil {
			ts, err = adsim.NewTailScheduler(adsim.TailConfig{
				Target:  *tailTgt,
				Ladder:  rungs,
				Metrics: reg,
			})
		}
		if err != nil {
			fail(2, "%v", err)
		}
	}

	var tw *pipeline.TraceWriter
	if *trace != "" {
		f := must(os.Create(*trace))
		defer f.Close()
		tw = pipeline.NewTraceWriter(f)
	}

	e2e := adsim.NewDistribution(*frames)
	var e2eSamples []float64
	det := adsim.NewDistribution(*frames)
	tra := adsim.NewDistribution(*frames)
	loc := adsim.NewDistribution(*frames)
	wall := adsim.NewDistribution(*frames)
	tracked, degraded, faulted := 0, 0, 0
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }

	// A scenario program gets a per-scenario constraint scorecard: every
	// delivered frame's end-to-end and per-stage latencies fold into one
	// replayable verdict.
	var card *adsim.ConstraintScorecard
	if prog != nil {
		card = adsim.NewConstraintScorecard(prog.Name, cfg.Scene.Seed, cfg.Scene.FPS)
		fmt.Printf("scenario program %q (seed %d), base world %s\n",
			prog.Name, cfg.Scene.Seed, scene.Kind(kind))
	}
	fmt.Printf("running %d %s frames at %dx%d (dnn=%v, survey=%d, inflight=%d)\n",
		*frames, scene.Kind(kind), *width, *height, *dnn, *survey, *inflight)
	start := time.Now()
	r := must(adsim.NewRunner(p, adsim.RunnerOptions{InFlight: *inflight, Tail: ts}))
	for res := range r.Run(*frames) {
		i := res.Frame.Index
		if res.Err != nil {
			// Under fault injection, dropped frames and hard stage faults
			// are part of the scenario: count them and keep driving.
			if !faulting {
				fail(1, "frame %d: %v", i, res.Err)
			}
			if card != nil {
				card.ObserveError()
			}
			faulted++
			if *verbose {
				fmt.Printf("frame %3d: FAULT %v\n", i, res.Err)
			}
			continue
		}
		wall.Add(ms(res.Wall))
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
			if err := tw.Write(pipeline.NewTraceRecord(res.FrameResult)); err != nil {
				fail(1, "%v", err)
			}
		}
		if *verbose {
			fmt.Printf("frame %3d: %2d det, %2d tracks, pose z=%7.1f (tracked=%v reloc=%v), plan=%v, e2e=%.1fms, degraded=%v\n",
				i, len(res.Detections), len(res.Tracks), res.Pose.Pose.Z,
				res.Pose.Tracked, res.Pose.Relocalized, res.Plan.Decision, ms(res.Timing.E2E), res.Degraded)
		}
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
	}

	if col != nil {
		fmt.Printf("\nper-stage telemetry (queue wait vs execute):\n")
		write := col.WriteJSON
		if *telem == "csv" {
			write = col.WriteCSV
		}
		if err := write(os.Stdout); err != nil {
			fail(1, "%v", err)
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

// runFleet drives -vehicles streams on one Fleet and prints its verdict.
func runFleet(cfg adsim.PipelineConfig, progs map[int]*adsim.ScenarioProgram, injects map[int]injector) {
	fc := adsim.FleetConfig{
		Vehicles:  *vehicles,
		Config:    cfg,
		Scenes:    map[int]adsim.SceneConfig{},
		InFlight:  *inflight,
		PhaseLock: *phase,
		Injects:   injects,
	}
	for v, p := range progs {
		sc := p.Configure(cfg.Scene)
		sc.Seed = 0 // keep the fleet's per-vehicle seed derivation (base seed + index)
		fc.Scenes[v] = sc
	}
	if *admit || *admitTgt > 0 || *maxVeh > 0 {
		fc.Admission = &adsim.AdmissionConfig{
			Target:      *admitTgt,
			MaxAdmitted: *maxVeh,
		}
	}
	if *survey > 0 {
		// Survey the shared store once; every vehicle localizes through a
		// private overlay view of it instead of surveying its own copy.
		base := slam.NewPriorMap()
		eng := must(slam.NewEngine(cfg.SLAM, base))
		gen := must(scene.New(cfg.Scene))
		for range *survey {
			f := gen.Step()
			eng.Survey(f.Image, f.EgoPose)
		}
		fc.SharedMap = base
		fc.Config.SurveyFrames = 0
	}
	faulting := len(injects) > 0

	f := must(adsim.NewFleet(fc))

	fmt.Printf("running %d vehicles x %d %s frames at %dx%d (dnn=%v, inflight=%d, phase=%v, admission=%v)\n",
		*vehicles, *frames, *scenario, *width, *height, *dnn,
		*inflight, *phase, fc.Admission != nil)

	// Churn triggers are keyed to total delivered frames so they land
	// mid-run at any fleet size, each on exactly one delivery. The add runs
	// in the delivering vehicle's callback, before that vehicle can finish,
	// so Wait always counts the new vehicle. The removal runs beside it:
	// RemoveVehicle blocks until its stream drains, which may be this one.
	var mu sync.Mutex
	faulted, addedID := 0, -1
	var delivered atomic.Int64
	var removal sync.WaitGroup
	if err := f.Start(*frames, func(v int, res adsim.RunnerResult) {
		n := delivered.Add(1)
		if n == int64(*addAt) {
			id, err := f.AddVehicle()
			if err != nil {
				fail(1, "add vehicle: %v", err)
			}
			addedID = id
		}
		if n == int64(*removeAt) {
			removal.Add(1)
			go func() {
				defer removal.Done()
				if err := f.RemoveVehicle(*removeV); err != nil {
					fail(1, "remove vehicle %d: %v", *removeV, err)
				}
			}()
		}
		mu.Lock()
		defer mu.Unlock()
		if res.Err != nil {
			if !faulting {
				fail(1, "vehicle %d frame %d: %v", v, res.Frame.Index, res.Err)
			}
			faulted++
			if *verbose {
				fmt.Printf("vehicle %d frame %3d: FAULT %v\n", v, res.Frame.Index, res.Err)
			}
			return
		}
		if *verbose {
			fmt.Printf("vehicle %d frame %3d: %2d det, %2d tracks, pose z=%7.1f, plan=%v, wall=%.1fms, degraded=%v\n",
				v, res.Frame.Index, len(res.Detections), len(res.Tracks),
				res.Pose.Pose.Z, res.Plan.Decision, float64(res.Wall)/1e6, res.Degraded)
		}
	}); err != nil {
		fail(1, "%v", err)
	}
	rep := f.Wait()
	removal.Wait()

	fmt.Printf("\n%s", rep)
	if addedID >= 0 {
		fmt.Printf("churn: vehicle %d added at runtime\n", addedID)
	}
	if *verbose {
		for _, e := range rep.Admission {
			fmt.Printf("admission %s\n", e)
		}
	}
	if *fault != "" {
		fmt.Printf("faulted frames %d (vehicle %d under %q)\n", faulted, *faultVeh, *fault)
	} else if faulting {
		fmt.Printf("faulted frames %d (under assigned program fault rules)\n", faulted)
	}
}
