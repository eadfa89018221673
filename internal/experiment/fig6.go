package experiment

import (
	"fmt"
	"strings"

	"adsim/internal/accel"
	"adsim/internal/pipeline"
)

func init() { register("fig6", runFig6) }

// Fig6Row is one component's latency summary on the multicore CPU system.
type Fig6Row struct {
	Component            string
	Mean, P99, P9999     float64
	PaperMean, PaperTail float64 // -1 when the paper gives no number
}

// Fig6Result reproduces Figure 6: per-component latency of the end-to-end
// system on conventional multicore CPUs, demonstrating that DET, TRA and
// LOC each individually exceed the 100 ms constraint.
type Fig6Result struct {
	Rows []Fig6Row
}

func (r Fig6Result) Render() string {
	var b strings.Builder
	b.WriteString(header("fig6", "Per-component latency on multicore CPUs (ms)"))
	fmt.Fprintf(&b, "%-9s %10s %10s %10s | %10s %12s\n",
		"Component", "Mean", "P99", "P99.99", "paper-mean", "paper-P99.99")
	for _, row := range r.Rows {
		paperMean, paperTail := "-", "-"
		if row.PaperMean >= 0 {
			paperMean = fmt.Sprintf("%.1f", row.PaperMean)
		}
		if row.PaperTail >= 0 {
			paperTail = fmt.Sprintf("%.1f", row.PaperTail)
		}
		fmt.Fprintf(&b, "%-9s %10.1f %10.1f %10.1f | %10s %12s\n",
			row.Component, row.Mean, row.P99, row.P9999, paperMean, paperTail)
	}
	b.WriteString("\nDET, TRA and LOC each exceed the 100 ms end-to-end constraint on CPUs;\n")
	b.WriteString("they are the three computational bottlenecks.\n")
	return b.String()
}

func runFig6(opts Options) (Result, error) {
	m := accel.NewModel()
	sim, err := pipeline.Simulate(m, pipeline.SimConfig{
		Assignment: pipeline.Uniform(accel.CPU),
		Frames:     opts.Frames,
		Seed:       opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	rows := []Fig6Row{
		{"DET", sim.Det.Mean(), sim.Det.P99(), sim.Det.P9999(),
			accel.PaperMean(accel.CPU, accel.DET), accel.PaperTail(accel.CPU, accel.DET)},
		{"TRA", sim.Tra.Mean(), sim.Tra.P99(), sim.Tra.P9999(),
			accel.PaperMean(accel.CPU, accel.TRA), accel.PaperTail(accel.CPU, accel.TRA)},
		{"LOC", sim.Loc.Mean(), sim.Loc.P99(), sim.Loc.P9999(),
			accel.PaperMean(accel.CPU, accel.LOC), accel.PaperTail(accel.CPU, accel.LOC)},
		{"FUSION", sim.Fusion.Mean(), sim.Fusion.P99(), sim.Fusion.P9999(),
			accel.FusionMeanMs, -1},
		{"MOTPLAN", sim.MotPlan.Mean(), sim.MotPlan.P99(), sim.MotPlan.P9999(),
			accel.MotPlanMeanMs, -1},
	}
	return Fig6Result{Rows: rows}, nil
}
