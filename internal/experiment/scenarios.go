package experiment

import (
	"fmt"
	"strings"
	"time"

	"adsim/internal/constraint"
	"adsim/internal/faultinject"
	"adsim/internal/pipeline"
	"adsim/internal/scenario"
	"adsim/internal/scene"
)

// The scenarios study sweeps the committed scenario-program library: every
// program is compiled (timeline onto the scene, fault rules onto the
// injector), driven through the native pipeline under virtual deadline
// enforcement, and folded into a per-scenario constraint.Scorecard. Each
// program then replays under the same seed; the deterministic scorecard
// fields (frames, errors, degraded count) must come back identical — the
// executable form of the replayability contract the scenario layer makes.

// scenariosParams sizes one sweep execution.
type scenariosParams struct {
	// Frames per program run. Programs phase over tens of seconds at the
	// scene rate, so more frames reach deeper into each timeline.
	Frames int
	Seed   int64
}

// ScenarioOutcome is one library program's measured scorecard plus the
// outcome of its replay check.
type ScenarioOutcome struct {
	Report constraint.ScorecardReport
	// ReplayOK reports that a second run of the same program and seed
	// reproduced the deterministic scorecard fields (frames delivered,
	// errors, degraded count).
	ReplayOK bool
}

// ScenariosResult is the rendered library sweep.
type ScenariosResult struct {
	banner
	Frames int
	Seed   int64
	Runs   []ScenarioOutcome
}

// Pass is the sweep's acceptance bar: the whole library ran (≥ 6 programs),
// every program delivered all its frames with zero errored frames, every
// replay reproduced the deterministic fields, and at least one program
// exercised the degraded path (the library includes fault-bearing
// programs precisely so the sweep is not a fair-weather test).
func (r ScenariosResult) Pass() bool {
	if len(r.Runs) < 6 {
		return false
	}
	degraded := 0
	for _, run := range r.Runs {
		if !run.ReplayOK || run.Report.Errors > 0 || run.Report.Frames != r.Frames {
			return false
		}
		degraded += run.Report.Degraded
	}
	return degraded > 0
}

func (r ScenariosResult) Render() string {
	var b strings.Builder
	b.WriteString(string(r.banner))
	fmt.Fprintf(&b, "%d frames per program, seed %d, virtual deadline enforcement (budget %v)\n\n",
		r.Frames, r.Seed, pipeline.DefaultFrameBudget)
	for _, run := range r.Runs {
		b.WriteString(run.Report.String())
		replay := "replay IDENTICAL"
		if !run.ReplayOK {
			replay = "replay DIVERGED"
		}
		fmt.Fprintf(&b, "  %s\n\n", replay)
	}
	verdict := "FAIL"
	if r.Pass() {
		verdict = "PASS"
	}
	fmt.Fprintf(&b, "scenario-sweep %s: %d programs, %d frames each, all replays identical\n",
		verdict, len(r.Runs), r.Frames)
	return b.String()
}

func runScenarios(opts Options) (Result, error) {
	// NativeFrames is the shared native-execution sizing knob; the sweep
	// scales it up so the runs reach past each program's first phase.
	frames := 20 * opts.NativeFrames
	if frames < 120 {
		frames = 120
	}
	res, err := runScenariosStudy(scenariosParams{Frames: frames, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	return &res, nil
}

func runScenariosStudy(p scenariosParams) (ScenariosResult, error) {
	res := ScenariosResult{Frames: p.Frames, Seed: p.Seed}
	for _, name := range scenario.Library() {
		first, err := runScenarioCase(name, p)
		if err != nil {
			return res, fmt.Errorf("scenario %s: %w", name, err)
		}
		second, err := runScenarioCase(name, p)
		if err != nil {
			return res, fmt.Errorf("scenario %s (replay): %w", name, err)
		}
		res.Runs = append(res.Runs, ScenarioOutcome{
			Report: first,
			// Wall latencies differ run to run; the frame, error and
			// degraded counts are pure functions of (program, seed) under
			// virtual enforcement and must not.
			ReplayOK: first.Frames == second.Frames &&
				first.Errors == second.Errors &&
				first.Degraded == second.Degraded,
		})
	}
	return res, nil
}

// runScenarioCase compiles one library program and drives it through a
// sequential Step loop, folding every delivered frame into a scorecard.
func runScenarioCase(name string, p scenariosParams) (constraint.ScorecardReport, error) {
	prog, err := scenario.Load(name)
	if err != nil {
		return constraint.ScorecardReport{}, err
	}
	cfg := pipeline.DefaultConfig(scene.Urban)
	cfg.Scene.Width, cfg.Scene.Height = 384, 192
	cfg.Scene.Seed = p.Seed
	cfg.SurveyFrames = 20
	cfg.Detect.RunDNN = false
	cfg.Track.RunDNN = false
	cfg.Scene = prog.Configure(cfg.Scene)
	cfg.Deadline = pipeline.DeadlinePolicy{Enforce: true, Virtual: true}
	inj, err := faultinject.New(faultinject.FromProgram(prog, p.Seed))
	if err != nil {
		return constraint.ScorecardReport{}, err
	}
	cfg.Inject = inj.Stage

	pl, err := pipeline.NewNative(cfg)
	if err != nil {
		return constraint.ScorecardReport{}, err
	}
	card := constraint.NewScorecard(name, p.Seed, cfg.Scene.FPS)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for i := 0; i < p.Frames; i++ {
		res, err := pl.Step()
		if err != nil {
			// Injected hard faults are part of the scenario: score them,
			// keep driving.
			card.ObserveError()
			continue
		}
		card.Observe(ms(res.Timing.E2E), map[string]float64{
			"DET":     ms(res.Timing.Det),
			"TRA":     ms(res.Timing.Tra),
			"LOC":     ms(res.Timing.Loc),
			"FUSION":  ms(res.Timing.Fusion),
			"MISPLAN": ms(res.Timing.MisPlan),
			"MOTPLAN": ms(res.Timing.MotPlan),
			"CONTROL": ms(res.Timing.Control),
		}, res.Degraded.Any())
	}
	pl.Drain()
	return card.Report(), nil
}
