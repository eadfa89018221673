package experiment

import (
	"fmt"

	"adsim/internal/pipeline"
	"adsim/internal/scene"
	"adsim/internal/telemetry"
)

// runFig7 reproduces Figure 7: the cycle breakdown showing the DNN
// portions of DET/TRA and the FE portion of LOC dominate their engines —
// measured by instrumenting the NATIVE Go pipeline (the paper instrumented
// its Caffe/C++ pipeline; absolute scale differs, the dominance shape is
// the reproduced claim).
//
// Each row is an engine's measured hot-kernel share of its time on this
// machine beside the paper's share, plus two hidden counts: the frames on
// which the hot kernel reported its sub-span, and the frames behind the
// share's denominator. They are equal when every executed frame was
// attributed — the timing-free half of the figure's structure.
func runFig7(opts Options) (*Table, error) {
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
	share := func(hot, total float64) percent {
		if total <= 0 {
			return 0
		}
		return percent(hot / total)
	}
	// TRA's kernels only run once tracks exist, and the tracker pool
	// propagates objects on parallel goroutines — its breakdown must divide
	// summed per-tracker work (DNN+Other), not the stage's wall time, which
	// the pool can exceed when trackers overlap. The sub-spans are emitted
	// only on frames where the kernel ran, so the sums already restrict to
	// those frames.
	traDNN, traOther := col.ExecSumMs("TRA/dnn"), col.ExecSumMs("TRA/other")
	return &Table{
		Sections: []Section{{
			Cols: []Col{
				{"Engine", "%-8s", "%-8s"}, {"Kernel", " %-8s", " %-8s"},
				{"measured", " %14s", " %13.1f%%"}, {"paper", " %14s", " %13.1f%%"},
				{Name: "hot spans"}, {Name: "spans"},
			},
			Rows: [][]any{
				{"DET", "DNN", share(col.ExecSumMs("DET/dnn"), col.ExecSumMs("DET")), percent(0.994),
					col.SpanCount("DET/dnn"), col.SpanCount("DET")},
				{"TRA", "DNN", share(traDNN, traDNN+traOther), percent(0.990),
					col.SpanCount("TRA/dnn"), col.SpanCount("TRA/other")},
				{"LOC", "FE", share(col.ExecSumMs("LOC/fe"), col.ExecSumMs("LOC")), percent(0.859),
					col.SpanCount("LOC/fe"), col.SpanCount("LOC")},
			},
		}},
		Note: fmt.Sprintf(`
(native instrumentation over %d frames; tiny-scale networks, so the
measured DNN share is a lower bound on the paper-scale share)
`, opts.NativeFrames),
	}, nil
}
