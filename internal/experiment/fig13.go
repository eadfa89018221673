package experiment

import (
	"fmt"
	"strings"

	"adsim/internal/accel"
	"adsim/internal/constraint"
	"adsim/internal/pipeline"
)

func init() { register("fig13", runFig13) }

// Fig13Series is one configuration's end-to-end tail latency across the
// resolution sweep.
type Fig13Series struct {
	Assignment pipeline.Assignment
	TailMs     []float64 // aligned with Resolutions
}

// Fig13Result reproduces Figure 13: performance scalability with camera
// resolution. Some ASIC/GPU configurations still meet the 100 ms constraint
// at Full HD; none sustain Quad HD.
type Fig13Result struct {
	Resolutions []accel.Resolution
	Series      []Fig13Series
}

func (r Fig13Result) Render() string {
	var b strings.Builder
	b.WriteString(header("fig13", "End-to-end tail latency vs. camera resolution (ms)"))
	fmt.Fprintf(&b, "%-18s", "DET/TRA/LOC")
	for _, res := range r.Resolutions {
		fmt.Fprintf(&b, " %12s", res.Name)
	}
	b.WriteString("\n")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%-18s", s.Assignment.Short())
		for _, v := range s.TailMs {
			mark := " "
			if v <= constraint.MaxTailLatencyMs {
				mark = "*"
			}
			fmt.Fprintf(&b, " %11.1f%s", v, mark)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "\n(* = meets the %.0f ms constraint. CPU rows omitted: off-scale.)\n",
		constraint.MaxTailLatencyMs)
	return b.String()
}

// MeetsAt reports whether any configuration meets the constraint at the
// given resolution index.
func (r Fig13Result) MeetsAt(resIdx int) bool {
	for _, s := range r.Series {
		if s.TailMs[resIdx] <= constraint.MaxTailLatencyMs {
			return true
		}
	}
	return false
}

func runFig13(opts Options) (Result, error) {
	m := accel.NewModel()
	resolutions := accel.SweepResolutions()
	// Sweep the accelerated configurations (CPU anywhere is off-scale).
	var configs []pipeline.Assignment
	for _, a := range figureConfigs() {
		if a.Det == accel.CPU || a.Tra == accel.CPU || a.Loc == accel.CPU {
			continue
		}
		configs = append(configs, a)
	}
	var series []Fig13Series
	// Fewer frames per point: 5 resolutions x many configs; the tail here
	// is jitter/spike driven and converges quickly.
	frames := opts.Frames / 2
	if frames < 20000 {
		frames = 20000
	}
	for i, a := range configs {
		s := Fig13Series{Assignment: a}
		for _, res := range resolutions {
			sim, err := pipeline.Simulate(m, pipeline.SimConfig{
				Assignment: a,
				Res:        res,
				Frames:     frames,
				Seed:       opts.Seed + int64(i),
			})
			if err != nil {
				return nil, err
			}
			s.TailMs = append(s.TailMs, sim.E2E.P9999())
		}
		series = append(series, s)
	}
	return Fig13Result{Resolutions: resolutions, Series: series}, nil
}
