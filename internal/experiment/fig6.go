package experiment

import (
	"fmt"

	"adsim/internal/accel"
	"adsim/internal/pipeline"
	"adsim/internal/stats"
)

// runFig6 reproduces Figure 6: per-component latency of the end-to-end
// system on conventional multicore CPUs, demonstrating that DET, TRA and
// LOC each individually exceed the 100 ms constraint.
func runFig6(opts Options) (*Table, error) {
	sim := simulate(pipeline.SimConfig{Assignment: pipeline.Uniform(accel.CPU), Frames: opts.Frames, Seed: opts.Seed})
	s := Section{Cols: []Col{
		{"Component", "%-9s", "%-9s"}, {"Mean", " %10s", " %10.1f"}, {"P99", " %10s", " %10.1f"},
		{"P99.99", " %10s", " %10.1f"}, {"paper-mean", " | %10s", " | %10s"}, {"paper-P99.99", " %12s", " %12s"},
	}}
	paper := func(ms float64) string {
		if ms < 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", ms)
	}
	for _, c := range []struct {
		name                 string
		d                    *stats.Distribution
		paperMean, paperTail float64 // -1 when the paper gives no number
	}{
		{"DET", sim.Det, accel.PaperMean(accel.CPU, accel.DET), accel.PaperTail(accel.CPU, accel.DET)},
		{"TRA", sim.Tra, accel.PaperMean(accel.CPU, accel.TRA), accel.PaperTail(accel.CPU, accel.TRA)},
		{"LOC", sim.Loc, accel.PaperMean(accel.CPU, accel.LOC), accel.PaperTail(accel.CPU, accel.LOC)},
		{"FUSION", sim.Fusion, accel.FusionMeanMs, -1},
		{"MOTPLAN", sim.MotPlan, accel.MotPlanMeanMs, -1},
	} {
		s.Rows = append(s.Rows, []any{c.name, c.d.Mean(), c.d.P99(), c.d.P9999(), paper(c.paperMean), paper(c.paperTail)})
	}
	return &Table{Sections: []Section{s}, Note: `
DET, TRA and LOC each exceed the 100 ms end-to-end constraint on CPUs;
they are the three computational bottlenecks.
`}, nil
}
