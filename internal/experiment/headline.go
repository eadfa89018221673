package experiment

import (
	"fmt"

	"adsim/internal/accel"
	"adsim/internal/pipeline"
)

// runHeadline reproduces the paper's abstract claim: GPU-, FPGA- and
// ASIC-accelerated systems reduce end-to-end tail latency by 169x, 10x and
// 93x respectively over the CPU baseline. A second section records the
// best mixed configuration's tail (DET=GPU, TRA=LOC=ASIC; the paper's
// 16.1 ms).
func runHeadline(opts Options) (*Table, error) {
	tail := func(a pipeline.Assignment, seed int64) float64 {
		return simulate(pipeline.SimConfig{Assignment: a, Frames: opts.Frames, Seed: seed}).E2E.P9999()
	}
	base := tail(pipeline.Uniform(accel.CPU), opts.Seed)
	s := Section{
		Title: fmt.Sprintf("CPU baseline end-to-end P99.99: %.0f ms (paper: ~9.1 s)\n\n", base),
		Cols: []Col{
			{"Platform", "%-8s", "%-8s"}, {"Tail (ms)", " %12s", " %12.1f"},
			{"Reduction", " %12s", " %11.0fx"}, {"Paper", " %10s", " %9.0fx"},
		},
	}
	for i, c := range []struct {
		p     accel.Platform
		paper float64
	}{{accel.GPU, 169}, {accel.FPGA, 10}, {accel.ASIC, 93}} {
		t := tail(pipeline.Uniform(c.p), opts.Seed+int64(i)+1)
		s.Rows = append(s.Rows, []any{c.p, t, base / t, c.paper})
	}
	best := Section{
		Title: "\n",
		Cols:  []Col{{Name: "best mixed", Verb: "Best mixed configuration (DET=GPU, TRA=ASIC, LOC=ASIC): %.1f ms tail"}},
		Rows:  [][]any{{tail(pipeline.Assignment{Det: accel.GPU, Tra: accel.ASIC, Loc: accel.ASIC}, opts.Seed+9)}},
	}
	return &Table{Sections: []Section{s, best}, Note: "(paper: 16.1 ms)\n"}, nil
}
