package experiment

import (
	"fmt"

	"adsim/internal/accel"
	"adsim/internal/constraint"
	"adsim/internal/pipeline"
)

// runFig13 reproduces Figure 13: performance scalability with camera
// resolution, as each configuration's end-to-end tail latency across the
// resolution sweep, marked where it meets the constraint. Some ASIC/GPU
// configurations still meet the 100 ms constraint at Full HD; none sustain
// Quad HD.
func runFig13(opts Options) (*Table, error) {
	resolutions := accel.SweepResolutions()
	s := Section{Cols: []Col{{"DET/TRA/LOC", "%-18s", "%-18s"}}}
	for _, res := range resolutions {
		s.Cols = append(s.Cols, Col{res.Name, " %12s", " %11.1f"}, Col{Verb: "%s"})
	}
	// Fewer frames per point: 5 resolutions x many configs; the tail here
	// is jitter/spike driven and converges quickly.
	frames := max(opts.Frames/2, 20000)
	// Sweep the accelerated configurations (CPU anywhere is off-scale).
	var configs []pipeline.Assignment
	for _, a := range figureConfigs() {
		if a.Det != accel.CPU && a.Tra != accel.CPU && a.Loc != accel.CPU {
			configs = append(configs, a)
		}
	}
	for i, a := range configs {
		row := []any{a.Short()}
		for _, res := range resolutions {
			tail := simulate(pipeline.SimConfig{Assignment: a, Res: res, Frames: frames, Seed: opts.Seed + int64(i)}).E2E.P9999()
			mark := " "
			if tail <= constraint.MaxTailLatencyMs {
				mark = "*"
			}
			row = append(row, tail, mark)
		}
		s.Rows = append(s.Rows, row)
	}
	return &Table{Sections: []Section{s}, Note: fmt.Sprintf(
		"\n(* = meets the %.0f ms constraint. CPU rows omitted: off-scale.)\n", constraint.MaxTailLatencyMs)}, nil
}
