package main

import (
	"fmt"
	"strings"
)

// layerValue is one per-layer metric of one workload: a value, or the
// reason the metric does not apply there (e.g. dnn.batch_depth on an
// unbatched executor).
type layerValue struct {
	Value float64 `json:"value"`
	NA    string  `json:"n/a,omitempty"`
	Note  string  `json:"note,omitempty"`
}

func val(v float64) layerValue { return layerValue{Value: v} }
func na(why string) layerValue { return layerValue{NA: why} }

// stageNames are the pipeline's stage spans, in graph order.
var stageNames = []string{"SRC", "DET", "LOC", "TRA", "FUSION", "MISPLAN", "MOTPLAN", "CONTROL"}

// frameSpans is the spans of one timed frame, by name.
type frameSpans struct {
	root  int
	stage map[string]int
}

// timedFrames groups the trace's timed spans by frame.
func (tr *trace) timedFrames() []frameSpans {
	var frames []frameSpans
	for i, s := range tr.spans {
		if s.Name != frameSpanName || !s.Timed {
			continue
		}
		fs := frameSpans{root: i, stage: map[string]int{}}
		for _, c := range tr.children[i] {
			fs.stage[tr.spans[c].Name] = c
			for _, k := range tr.children[c] {
				fs.stage[tr.spans[k].Name] = k
			}
		}
		frames = append(frames, fs)
	}
	return frames
}

// check verifies the trace's shape: every timed frame has one root and
// exactly one span per stage, and no self time is negative. (Spans of
// frames a fleet drains after its window closed have no root; they are
// untimed and feed no metric.)
func (tr *trace) check(timedFrames int) error {
	frames := tr.timedFrames()
	if len(frames) != timedFrames {
		return fmt.Errorf("trace has %d timed frame spans, want %d", len(frames), timedFrames)
	}
	for _, fs := range frames {
		root := tr.spans[fs.root]
		count := map[string]int{}
		for _, c := range tr.children[fs.root] {
			count[tr.spans[c].Name]++
		}
		for _, st := range stageNames {
			if count[st] != 1 {
				return fmt.Errorf("vehicle %d frame %d has %d %s spans, want 1", root.Vehicle, root.Frame, count[st], st)
			}
		}
	}
	for i, s := range tr.spans {
		if tr.selfNs(i) < 0 {
			return fmt.Errorf("span %s of vehicle %d frame %d has negative self time", s.Name, s.Vehicle, s.Frame)
		}
	}
	return nil
}

// inSitu derives the in-situ per-layer metrics of one workload from the
// traced repetition's span tree and window counters; traceOverhead is the
// median over the traced/untraced pairs of 1 − traced/untraced throughput.
func inSitu(s spec, tr *trace, rep repResult, traceOverhead float64) map[string]layerValue {
	out := map[string]layerValue{}
	frames := tr.timedFrames()
	n := float64(len(frames))
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }

	// Sums over timed frames, per span name.
	exec, queue, self := map[string]int64{}, map[string]int64{}, map[string]int64{}
	busy := map[stageKey]int64{}
	explained := 0.0
	for _, fs := range frames {
		root := tr.spans[fs.root]
		for name, i := range fs.stage {
			sp := tr.spans[i]
			exec[name] += sp.End - sp.Start
			queue[name] += sp.Queue
			self[name] += tr.selfNs(i)
			if !strings.Contains(name, "/") {
				busy[stageKey{sp.Vehicle, name}] += sp.End - sp.Start
			}
		}
		// Σ queue+exec along the blocking path of the stage graph.
		along := func(name string) int64 {
			i, ok := fs.stage[name]
			if !ok {
				return 0
			}
			return tr.spans[i].Queue + tr.spans[i].End - tr.spans[i].Start
		}
		front := max(along("LOC"), along("DET")+along("TRA"))
		path := front + along("FUSION") + along("MOTPLAN") + along("CONTROL")
		if wall := root.End - root.Start; wall > 0 {
			explained += float64(path) / float64(wall)
		}
	}
	perFrame := func(sum int64) layerValue { return val(ms(sum) / n) }

	for _, st := range stageNames {
		out["pipeline."+strings.ToLower(st)+".exec_ms"] = perFrame(exec[st])
	}
	for _, st := range []string{"DET", "LOC", "TRA"} {
		out["pipeline."+strings.ToLower(st)+".queue_ms"] = perFrame(queue[st])
	}
	out["pipeline.backend.queue_ms"] = perFrame(queue["FUSION"] + queue["MISPLAN"] + queue["MOTPLAN"] + queue["CONTROL"])

	dnnOff := na("DNNs are off on this workload")
	if s.Stall {
		out["detect.dnn_ms"], out["track.dnn_ms"], out["track.other_ms"] = dnnOff, dnnOff, dnnOff
	} else {
		out["detect.dnn_ms"] = perFrame(exec["DET/dnn"])
		out["track.dnn_ms"] = perFrame(exec["TRA/dnn"])
		out["track.other_ms"] = perFrame(exec["TRA/other"])
	}
	out["detect.self_ms"] = perFrame(self["DET"])
	out["slam.fe_ms"] = perFrame(exec["LOC/fe"])
	out["slam.self_ms"] = perFrame(self["LOC"])

	out["pipeline.wall_explained_share"] = val(explained / n)
	var top stageKey
	for k, b := range busy {
		if b > busy[top] || top.stage == "" {
			top = k
		}
	}
	out["pipeline.bottleneck_busy_share"] = layerValue{
		Value: float64(busy[top]) / 1e9 / rep.WallS,
		Note:  fmt.Sprintf("vehicle %d %s", top.vehicle, top.stage),
	}
	out["pipeline.trace_overhead_share"] = val(traceOverhead)

	out["pipeline.cpu_ms_per_frame"] = val(rep.CPUMsPF)
	out["pipeline.alloc_kb_per_frame"] = val(rep.AllocKBPF)
	out["pipeline.gc_per_kframe"] = val(rep.GCPerKFrame)
	out["pipeline.goroutines"] = val(float64(rep.Goroutines))
	out["pipeline.deadline_miss_share"] = val(rep.MissShare)
	out["pipeline.anytime_share"] = val(rep.AnytimeShare)
	if s.Stall {
		out["pipeline.tail_window_mean"] = val(rep.TailWindow)
	} else {
		out["pipeline.tail_window_mean"] = na("no tail scheduler on this workload")
	}
	if s.Vehicles > 1 {
		out["pipeline.fleet_fairness"] = val(rep.Fairness)
		out["dnn.batch_depth"] = val(rep.BatchDepth)
		out["dnn.gather_calls_per_frame"] = val(rep.GatherPF)
	} else {
		solo := na("one vehicle on an unbatched executor")
		out["pipeline.fleet_fairness"], out["dnn.batch_depth"], out["dnn.gather_calls_per_frame"] = solo, solo, solo
	}
	out["slam.map_keyframes"] = val(rep.Keyframes)
	out["slam.relocs_per_kframe"] = val(rep.RelocsPerK)
	return out
}
