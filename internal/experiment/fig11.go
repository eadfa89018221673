package experiment

import (
	"adsim/internal/constraint"
	"adsim/internal/pipeline"
)

// runFig11 reproduces Figure 11: end-to-end mean and 99.99th-percentile
// latency across accelerator configurations, including the paper's
// observations that (a) some configurations pass on mean latency but fail
// on tail latency, and (b) acceleration reduces the CPU baseline's 9.1 s
// tail to 16.1 ms. The two pass columns judge the mean (the misleading
// metric) and the tail against the 100 ms constraint.
func runFig11(opts Options) (*Table, error) {
	s := Section{Cols: []Col{
		{"DET/TRA/LOC", "%-18s", "%-18s"}, {"Mean", " %12s", " %12.1f"}, {"P99.99", " %12s", " %12.1f"},
		{"mean<=100", " %8s", " %8v"}, {"tail<=100", " %8s", " %8v"},
	}}
	for i, a := range figureConfigs() {
		e2e := simulate(pipeline.SimConfig{Assignment: a, Frames: opts.Frames, Seed: opts.Seed + int64(i)}).E2E
		s.Rows = append(s.Rows, []any{a.Short(), e2e.Mean(), e2e.P9999(),
			e2e.Mean() <= constraint.MaxTailLatencyMs, e2e.P9999() <= constraint.MaxTailLatencyMs})
	}
	return &Table{Sections: []Section{s}, Note: `
Configurations passing on mean but failing on tail demonstrate why tail
latency must be the evaluation metric (the paper's Finding 2/4).
`}, nil
}
