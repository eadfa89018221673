// Command adfleet multiplexes N vehicle streams onto shared engines: every
// vehicle runs the full native pipeline on its own seeded scenario, with
// DET/TRA engines sharing one executor (the machine's cores split evenly
// across the vehicles) and one copy of the network weights, and the prior
// map served from one shared store. It prints the fleet verdict —
// fleet-level P99.99, sustained vehicles/s, and a per-vehicle scorecard.
//
// Usage:
//
//	adfleet -vehicles 4 -frames 50
//	adfleet -vehicles 8 -frames 100 -scenario highway -inflight 4
//	adfleet -vehicles 4 -frames 200 -deadline 100ms -fault 'DET:delay=30ms:every=5' -fault-vehicle 1
//	adfleet -vehicles 4 -frames 100 -assign '1=cut-in,3=blackout'   # per-vehicle scenario programs
//	adfleet -vehicles 8 -frames 200 -phase -admission               # capacity mode: phase-locked pacing + budget shedding
//	adfleet -vehicles 4 -frames 100 -add-at 50 -remove-at 100 -remove-vehicle 1   # runtime churn
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
	"adsim/internal/scene"
	"adsim/internal/slam"
)

func main() {
	var (
		vehicles = flag.Int("vehicles", 4, "vehicle streams to multiplex")
		frames   = flag.Int("frames", 50, "frames to process per vehicle")
		scenario = flag.String("scenario", "urban", "template scenario kind every vehicle drives: urban or highway")
		assign   = flag.String("assign", "", "per-vehicle scenario programs as comma-separated INDEX=PROGRAM pairs (library name or .adsc path), e.g. '1=cut-in,3=blackout'; assigned vehicles keep their derived seed and the program's fault rules")
		width    = flag.Int("width", 512, "frame width")
		height   = flag.Int("height", 256, "frame height")
		survey   = flag.Int("survey", 60, "prior-map survey frames")
		dnn      = flag.Bool("dnn", true, "execute the native DNNs (slower, exercises the shared executor and networks)")
		inflight = flag.Int("inflight", 3, "frames in flight per vehicle Runner")
		seed     = flag.Int64("seed", 1, "base scenario seed; vehicle i drives seed+i")
		deadline = flag.Duration("deadline", 0, "enforce per-stage deadline budgets split from this frame deadline (0 disables)")
		admit    = flag.Bool("admission", false, "frame-budget admission control: shed whole vehicle streams (unhealthiest first, ties toward the highest vehicle ID) when the fleet P99.99 nears the budget, readmit with hysteresis when it subsides")
		admitTgt = flag.Duration("admission-target", 0, "admission frame budget the controller steers the fleet tail under (0 = the paper's 100ms; implies -admission)")
		maxVeh   = flag.Int("max-vehicles", 0, "cap on concurrently admitted vehicle streams, enforced at registration and respected by readmits (0 = uncapped; implies -admission)")
		phase    = flag.Bool("phase", false, "phase-lock co-resident vehicles' frame admission: pace every stream on one fleet beat so none runs ahead of the others")
		addAt    = flag.Int("add-at", 0, "add one vehicle at runtime once this many total frames are delivered (0 disables)")
		removeAt = flag.Int("remove-at", 0, "remove vehicle -remove-vehicle at runtime once this many total frames are delivered (0 disables)")
		removeV  = flag.Int("remove-vehicle", 0, "vehicle index removed by -remove-at")
		fault    = flag.String("fault", "", "seeded fault scenario injected into ONE vehicle, e.g. 'DET:delay=30ms:every=5'")
		faultVeh = flag.Int("fault-vehicle", 0, "vehicle index the -fault scenario is injected into")
		faultSd  = flag.Int64("fault-seed", 1, "seed for the fault scenario's probabilistic rules")
		verbose  = flag.Bool("v", false, "print per-frame results")
	)
	flag.Parse()

	fail := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "adfleet: "+format+"\n", args...)
		os.Exit(code)
	}

	kind := adsim.Urban
	switch *scenario {
	case "urban":
	case "highway":
		kind = adsim.Highway
	default:
		fail(2, "unknown scenario %q", *scenario)
	}
	if *vehicles < 1 {
		fail(2, "-vehicles must be >= 1")
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["fault-vehicle"] && *fault == "" {
		fail(2, "-fault-vehicle picks the vehicle -fault is injected into; it needs -fault")
	}
	if set["remove-vehicle"] && *removeAt <= 0 {
		fail(2, "-remove-vehicle picks the vehicle -remove-at removes; it needs -remove-at")
	}
	if *fault != "" && (*faultVeh < 0 || *faultVeh >= *vehicles) {
		fail(2, "-fault-vehicle %d out of range [0,%d)", *faultVeh, *vehicles)
	}
	if *removeAt > 0 && (*removeV < 0 || *removeV >= *vehicles) {
		fail(2, "-remove-vehicle %d out of range [0,%d)", *removeV, *vehicles)
	}

	cfg := adsim.DefaultPipelineConfig(kind)
	cfg.Scene.Width, cfg.Scene.Height = *width, *height
	cfg.Scene.Seed = *seed
	cfg.SurveyFrames = *survey
	cfg.Detect.RunDNN = *dnn
	cfg.Track.RunDNN = *dnn
	if *deadline > 0 {
		cfg.Deadline = adsim.DeadlinePolicy{Enforce: true, FrameBudget: *deadline}
	}

	fc := adsim.FleetConfig{
		Vehicles:  *vehicles,
		Config:    cfg,
		InFlight:  *inflight,
		PhaseLock: *phase,
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
		eng, err := slam.NewEngine(cfg.SLAM, base)
		if err != nil {
			fail(1, "%v", err)
		}
		gen, err := scene.New(cfg.Scene)
		if err != nil {
			fail(1, "%v", err)
		}
		for i := 0; i < *survey; i++ {
			f := gen.Step()
			eng.Survey(f.Image, f.EgoPose)
		}
		fc.SharedMap = base
		fc.Config.SurveyFrames = 0
	}
	// injector builds a vehicle's stage injector.
	injector := func(sc adsim.FaultScenario) func(string, int) (time.Duration, error) {
		inj, err := adsim.NewFaultInjector(sc)
		if err != nil {
			fail(2, "%v", err)
		}
		return inj.Stage
	}
	fc.Injects = map[int]func(string, int) (time.Duration, error){}
	faulting := *fault != ""
	if faulting {
		sc, err := adsim.ParseFaultScenario(*fault, *faultSd)
		if err != nil {
			fail(2, "%v", err)
		}
		fc.Injects[*faultVeh] = injector(sc)
	}
	if *assign != "" {
		fc.Scenes = map[int]adsim.SceneConfig{}
		for _, pair := range strings.Split(*assign, ",") {
			idxStr, ref, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				fail(2, "bad -assign entry %q (want INDEX=PROGRAM)", pair)
			}
			idx, err := strconv.Atoi(strings.TrimSpace(idxStr))
			if err != nil || idx < 0 || idx >= *vehicles {
				fail(2, "bad -assign vehicle index %q (fleet has %d vehicles)", idxStr, *vehicles)
			}
			if _, dup := fc.Scenes[idx]; dup {
				fail(2, "-assign lists vehicle %d twice", idx)
			}
			prog, err := adsim.ResolveScenarioProgram(strings.TrimSpace(ref))
			if err != nil {
				fail(2, "%v", err)
			}
			sc := prog.Configure(cfg.Scene)
			sc.Seed = 0 // keep the fleet's per-vehicle seed derivation (base seed + index)
			fc.Scenes[idx] = sc
			if len(prog.Faults) > 0 {
				if _, dup := fc.Injects[idx]; dup {
					fail(2, "vehicle %d has both -fault and program %q fault rules", idx, prog.Name)
				}
				fc.Injects[idx] = injector(adsim.FaultScenarioFromProgram(prog, *faultSd))
				faulting = true
			}
		}
	}

	f, err := adsim.NewFleet(fc)
	if err != nil {
		fail(1, "%v", err)
	}

	fmt.Printf("running %d vehicles x %d %s frames at %dx%d (dnn=%v, inflight=%d, phase=%v, admission=%v)\n",
		*vehicles, *frames, *scenario, *width, *height, *dnn,
		*inflight, *phase, fc.Admission != nil)

	// Churn triggers are keyed to total delivered frames so they land
	// mid-run at any fleet size; the churn goroutine also unblocks on run
	// end in case a trigger is set past the run's total frame count.
	var mu sync.Mutex
	faulted := 0
	var delivered atomic.Int64
	addSig, removeSig := make(chan struct{}), make(chan struct{})
	var addOnce, removeOnce sync.Once
	runDone, churnDone := make(chan struct{}), make(chan struct{})
	if err := f.Start(*frames, func(v int, res adsim.RunnerResult) {
		n := delivered.Add(1)
		if *addAt > 0 && n >= int64(*addAt) {
			addOnce.Do(func() { close(addSig) })
		}
		if *removeAt > 0 && n >= int64(*removeAt) {
			removeOnce.Do(func() { close(removeSig) })
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
	addedID := -1
	go func() {
		defer close(churnDone)
		if *addAt > 0 {
			select {
			case <-addSig:
				id, err := f.AddVehicle()
				if err != nil {
					fail(1, "add vehicle: %v", err)
				}
				addedID = id
			case <-runDone:
				return
			}
		}
		if *removeAt > 0 {
			select {
			case <-removeSig:
				if err := f.RemoveVehicle(*removeV); err != nil {
					fail(1, "remove vehicle %d: %v", *removeV, err)
				}
			case <-runDone:
			}
		}
	}()
	rep := f.Wait()
	close(runDone)
	<-churnDone

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
