package experiment

import (
	"fmt"
	"strings"

	"adsim/internal/accel"
	"adsim/internal/pipeline"
)

func init() { register("headline", runHeadline) }

// HeadlineRow is one accelerator's end-to-end tail-latency reduction over
// the CPU baseline.
type HeadlineRow struct {
	Platform  accel.Platform
	TailMs    float64
	Reduction float64 // vs. the CPU baseline
	Paper     float64 // the paper's abstract: 169x / 10x / 93x
}

// HeadlineResult reproduces the paper's abstract claim: GPU-, FPGA- and
// ASIC-accelerated systems reduce end-to-end tail latency by 169x, 10x and
// 93x respectively.
type HeadlineResult struct {
	BaselineTailMs float64
	Rows           []HeadlineRow
	BestMixedTail  float64 // DET=GPU, TRA=LOC=ASIC (the paper's 16.1 ms)
}

func (r HeadlineResult) Render() string {
	var b strings.Builder
	b.WriteString(header("headline", "Tail-latency reduction vs. CPU baseline"))
	fmt.Fprintf(&b, "CPU baseline end-to-end P99.99: %.0f ms (paper: ~9.1 s)\n\n", r.BaselineTailMs)
	fmt.Fprintf(&b, "%-8s %12s %12s %10s\n", "Platform", "Tail (ms)", "Reduction", "Paper")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %12.1f %11.0fx %9.0fx\n",
			row.Platform, row.TailMs, row.Reduction, row.Paper)
	}
	fmt.Fprintf(&b, "\nBest mixed configuration (DET=GPU, TRA=ASIC, LOC=ASIC): %.1f ms tail\n", r.BestMixedTail)
	b.WriteString("(paper: 16.1 ms)\n")
	return b.String()
}

func runHeadline(opts Options) (Result, error) {
	m := accel.NewModel()
	tail := func(a pipeline.Assignment, seed int64) (float64, error) {
		sim, err := pipeline.Simulate(m, pipeline.SimConfig{
			Assignment: a, Frames: opts.Frames, Seed: seed,
		})
		if err != nil {
			return 0, err
		}
		return sim.E2E.P9999(), nil
	}
	base, err := tail(pipeline.Uniform(accel.CPU), opts.Seed)
	if err != nil {
		return nil, err
	}
	res := HeadlineResult{BaselineTailMs: base}
	paper := map[accel.Platform]float64{accel.GPU: 169, accel.FPGA: 10, accel.ASIC: 93}
	for i, p := range []accel.Platform{accel.GPU, accel.FPGA, accel.ASIC} {
		t, err := tail(pipeline.Uniform(p), opts.Seed+int64(i)+1)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, HeadlineRow{
			Platform: p, TailMs: t, Reduction: base / t, Paper: paper[p],
		})
	}
	best, err := tail(pipeline.Assignment{Det: accel.GPU, Tra: accel.ASIC, Loc: accel.ASIC}, opts.Seed+9)
	if err != nil {
		return nil, err
	}
	res.BestMixedTail = best
	return res, nil
}
