package experiment

import (
	"fmt"
	"slices"

	"adsim/internal/constraint"
	"adsim/internal/faultinject"
	"adsim/internal/pipeline"
	"adsim/internal/scenario"
)

// The scenarios study sweeps the committed scenario-program library: every
// program is compiled (timeline onto the scene, fault rules onto the
// injector), driven through the native pipeline under virtual deadline
// enforcement and judged by a constraint.Monitor on the frame clock. Each
// program then replays under the same seed, and its whole row must come
// back identical — the executable form of the replayability contract the
// scenario layer makes.

// runScenarios renders one verdict row and one per-stage miss row per
// program. NativeFrames is the shared native-execution sizing knob; pass a
// larger -native-frames to reach deeper into each program's timeline.
func runScenarios(opts Options) (*Table, error) {
	frames := 3 * opts.NativeFrames
	verdicts := Section{
		Title: fmt.Sprintf("%d frames per program, seed %d, virtual frame clock, deadline budget %v\n\n",
			frames, opts.Seed, pipeline.DefaultFrameBudget),
		Cols: []Col{
			{"program", "%-16s", "%-16s"}, {"frames", " %6s", " %6d"}, {"errors", " %6s", " %6d"},
			{"degraded", " %8s", " %8d"}, {"hard-miss", " %9s", " %9d"}, {"p99.99-ms", " %9s", " %9.1f"},
			{"mean-ms", " %7s", " %7.1f"}, {"fps", " %5s", " %5.1f"},
			{"perform", " %7s", " %7v"}, {"predict", " %7s", " %7v"},
		},
	}
	misses := Section{
		Title: "\ndeadline misses per stage (frames)\n",
		Cols:  []Col{{"program", "%-16s", "%-16s"}},
	}
	for id := pipeline.StageDet; id < pipeline.NumStages; id++ {
		misses.Cols = append(misses.Cols, Col{id.String(), " %7s", " %7d"})
	}
	misses.Cols = append(misses.Cols, Col{"replay", " %6s", " %6v"})

	pass := true
	degraded := 0
	for _, name := range scenario.Library() {
		first, err := runScenarioCase(name, frames, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", name, err)
		}
		second, err := runScenarioCase(name, frames, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("scenario %s (replay): %w", name, err)
		}
		replay := slices.Equal(first[0], second[0]) && slices.Equal(first[1], second[1])
		verdicts.Rows = append(verdicts.Rows, first[0])
		misses.Rows = append(misses.Rows, append(first[1], passFail(replay)))
		// Cells: 1 frames, 2 errors, 3 degraded.
		pass = pass && replay && first[0][1] == frames && first[0][2] == 0
		degraded += first[0][3].(int)
	}
	// The sweep's acceptance bar: the whole library ran (≥ 6 programs),
	// every program delivered all its frames with zero errored frames,
	// every replay reproduced its rows, and at least one program exercised
	// the degraded path (the library includes fault-bearing programs
	// precisely so the sweep is not a fair-weather test).
	pass = pass && len(verdicts.Rows) >= 6 && degraded > 0
	return &Table{
		Sections: []Section{verdicts, misses},
		Note: fmt.Sprintf("\nscenario-sweep %v: %d programs, %d frames each, each run twice\n",
			passFail(pass), len(verdicts.Rows), frames),
	}, nil
}

// runScenarioCase compiles one library program, drives it through a
// sequential Step loop with a Monitor on the pipeline's sink, and returns
// its verdict row and its per-stage miss row. The Monitor folds every
// delivered frame, an errored one too.
func runScenarioCase(name string, frames int, seed int64) ([2][]any, error) {
	prog, err := scenario.Load(name)
	if err != nil {
		return [2][]any{}, err
	}
	mon := constraint.NewMonitor(constraint.MonitorConfig{Window: frames})
	cfg, err := studyConfig(faultinject.FromProgram(prog, seed), mon)
	if err != nil {
		return [2][]any{}, err
	}
	cfg.Scene = prog.Configure(cfg.Scene)
	pl, err := pipeline.NewNative(cfg)
	if err != nil {
		return [2][]any{}, err
	}
	delivered, errs := 0, 0
	var misses [pipeline.NumStages]int
	for range frames {
		res, err := pl.Step()
		if err != nil {
			// Injected hard faults are part of the scenario: count them,
			// keep driving.
			errs++
		} else {
			delivered++
		}
		for id := range pipeline.NumStages {
			if res.Degraded.Has(id) {
				misses[id]++
			}
		}
	}
	pl.Drain()
	snap := mon.Snapshot()
	missRow := []any{name}
	for id := pipeline.StageDet; id < pipeline.NumStages; id++ {
		missRow = append(missRow, misses[id])
	}
	return [2][]any{
		{name, delivered, errs, int(snap.TotalDegraded), int(snap.TotalHardMisses), snap.TailMs, snap.MeanMs, snap.FPS,
			passFail(snap.Performance.Passed), passFail(snap.Predictability.Passed)},
		missRow,
	}, nil
}
