package experiment

import (
	"fmt"
	"strings"

	"adsim/internal/pipeline"
	"adsim/internal/scene"
	"adsim/internal/telemetry"
)

func init() { register("fig7", runFig7) }

// Fig7Row is one engine's cycle breakdown.
type Fig7Row struct {
	Engine string
	// HotShare is the measured fraction of engine time in the hot kernel
	// (DNN for DET/TRA, FE for LOC) on this machine's native run.
	HotShare float64
	// PaperShare is the paper's Fig 7 fraction.
	PaperShare float64
	HotLabel   string
	// HotSpans counts the frames on which the hot kernel reported its
	// sub-span; Spans counts the frames behind the share's denominator.
	// They are equal when every executed frame was attributed — the
	// timing-free half of the figure's structure.
	HotSpans, Spans int64
}

// Fig7Result reproduces Figure 7: the cycle breakdown showing the DNN
// portions of DET/TRA and the FE portion of LOC dominate their engines —
// measured by instrumenting the NATIVE Go pipeline (the paper instrumented
// its Caffe/C++ pipeline; absolute scale differs, the dominance shape is
// the reproduced claim).
type Fig7Result struct {
	Rows   []Fig7Row
	Frames int
}

func (r Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString(header("fig7", "Cycle breakdown of DET, TRA, LOC (hot kernel share)"))
	fmt.Fprintf(&b, "%-8s %-8s %14s %14s\n", "Engine", "Kernel", "measured", "paper")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %-8s %13.1f%% %13.1f%%\n",
			row.Engine, row.HotLabel, 100*row.HotShare, 100*row.PaperShare)
	}
	fmt.Fprintf(&b, "\n(native instrumentation over %d frames; tiny-scale networks, so the\n", r.Frames)
	b.WriteString("measured DNN share is a lower bound on the paper-scale share)\n")
	return b.String()
}

func runFig7(opts Options) (Result, error) {
	cfg := pipeline.DefaultConfig(scene.Urban)
	cfg.Scene.Width, cfg.Scene.Height = 512, 256
	cfg.SurveyFrames = 20
	// The breakdown now comes entirely from the telemetry layer: the stage
	// bodies emit kernel sub-spans ("DET/dnn", "TRA/dnn", "TRA/other",
	// "LOC/fe") alongside the stage spans, and the collector's lifetime
	// exec sums are the figure's numerators and denominators.
	col := telemetry.NewCollector(0)
	cfg.Telemetry = col
	p, err := pipeline.NewNative(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < opts.NativeFrames; i++ {
		if _, err := p.Step(); err != nil {
			return nil, err
		}
	}
	share := func(hot, total float64) float64 {
		if total <= 0 {
			return 0
		}
		return hot / total
	}
	// TRA's kernels only run once tracks exist, and the tracker pool
	// propagates objects on parallel goroutines — its breakdown must divide
	// summed per-tracker work (DNN+Other), not the stage's wall time, which
	// the pool can exceed when trackers overlap. The sub-spans are emitted
	// only on frames where the kernel ran, so the sums already restrict to
	// those frames.
	traDNN, traOther := col.ExecSumMs("TRA/dnn"), col.ExecSumMs("TRA/other")
	rows := []Fig7Row{
		{Engine: "DET", HotLabel: "DNN", PaperShare: 0.994,
			HotShare: share(col.ExecSumMs("DET/dnn"), col.ExecSumMs("DET")),
			HotSpans: col.SpanCount("DET/dnn"), Spans: col.SpanCount("DET")},
		{Engine: "TRA", HotLabel: "DNN", PaperShare: 0.990,
			HotShare: share(traDNN, traDNN+traOther),
			HotSpans: col.SpanCount("TRA/dnn"), Spans: col.SpanCount("TRA/other")},
		{Engine: "LOC", HotLabel: "FE", PaperShare: 0.859,
			HotShare: share(col.ExecSumMs("LOC/fe"), col.ExecSumMs("LOC")),
			HotSpans: col.SpanCount("LOC/fe"), Spans: col.SpanCount("LOC")},
	}
	return Fig7Result{Rows: rows, Frames: opts.NativeFrames}, nil
}
