package experiment

import (
	"fmt"
	"strings"

	"adsim/internal/accel"
	"adsim/internal/constraint"
	"adsim/internal/pipeline"
)

func init() { register("fig11", runFig11) }

// Fig11Row is one platform-assignment configuration's end-to-end latency.
type Fig11Row struct {
	Assignment pipeline.Assignment
	Mean, Tail float64 // ms
	MeetsTail  bool    // tail ≤ 100 ms
	MeetsMean  bool    // mean ≤ 100 ms (the misleading metric)
}

// Fig11Result reproduces Figure 11: end-to-end mean and 99.99th-percentile
// latency across accelerator configurations, including the paper's
// observations that (a) some configurations pass on mean latency but fail
// on tail latency, and (b) acceleration reduces the CPU baseline's 9.1 s
// tail to 16.1 ms.
type Fig11Result struct {
	Rows []Fig11Row
}

func (r Fig11Result) Render() string {
	var b strings.Builder
	b.WriteString(header("fig11", "End-to-end latency across configurations (ms)"))
	fmt.Fprintf(&b, "%-18s %12s %12s %8s %8s\n",
		"DET/TRA/LOC", "Mean", "P99.99", "mean<=100", "tail<=100")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %12.1f %12.1f %8v %8v\n",
			row.Assignment.Short(), row.Mean, row.Tail, row.MeetsMean, row.MeetsTail)
	}
	b.WriteString("\nConfigurations passing on mean but failing on tail demonstrate why tail\n")
	b.WriteString("latency must be the evaluation metric (the paper's Finding 2/4).\n")
	return b.String()
}

// MeanPassTailFail counts configurations that pass on mean latency but fail
// the tail constraint — the paper's headline predictability observation.
func (r Fig11Result) MeanPassTailFail() int {
	n := 0
	for _, row := range r.Rows {
		if row.MeetsMean && !row.MeetsTail {
			n++
		}
	}
	return n
}

func runFig11(opts Options) (Result, error) {
	m := accel.NewModel()
	var rows []Fig11Row
	for i, a := range figureConfigs() {
		sim, err := pipeline.Simulate(m, pipeline.SimConfig{
			Assignment: a,
			Frames:     opts.Frames,
			Seed:       opts.Seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig11Row{
			Assignment: a,
			Mean:       sim.E2E.Mean(),
			Tail:       sim.E2E.P9999(),
			MeetsMean:  sim.E2E.Mean() <= constraint.MaxTailLatencyMs,
			MeetsTail:  sim.E2E.P9999() <= constraint.MaxTailLatencyMs,
		})
	}
	return Fig11Result{Rows: rows}, nil
}
