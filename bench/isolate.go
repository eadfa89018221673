package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"adsim"
	"adsim/internal/constraint"
	"adsim/internal/control"
	"adsim/internal/detect"
	"adsim/internal/dnn"
	"adsim/internal/fusion"
	"adsim/internal/mission"
	"adsim/internal/plan"
	"adsim/internal/scenario"
	"adsim/internal/scene"
	"adsim/internal/slam"
	"adsim/internal/stats"
	"adsim/internal/telemetry"
	"adsim/internal/tensor"
	"adsim/internal/track"
	"adsim/scenarios"
)

// isolationFrames is how many leading frames of the solo scene the
// isolation pass records and replays into each layer.
const isolationFrames = 32

// isolationLoops is how many timed loops each op gets; the median is kept.
const isolationLoops = 5

// sink keeps results live so the compiler cannot drop a timed call.
var sink any

// timeOp measures op's cost in nanoseconds: the iteration count is doubled
// until one loop lasts at least minDur (those loops are the warm-up), then
// isolationLoops loops of that size are timed and the median ns/op
// returned.
func timeOp(minDur time.Duration, op func()) float64 {
	loop := func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		return time.Since(start)
	}
	n := 1
	for loop(n) < minDur {
		n *= 2
	}
	per := make([]float64, isolationLoops)
	for i := range per {
		per[i] = float64(loop(n)) / float64(n)
	}
	return median(per)
}

// recording is the solo scene's first frames run once through a sequential
// pipeline: the inputs (images) and intermediate products (detections,
// tracks, poses, fused objects, plans) each layer is then driven with.
type recording struct {
	cfg    adsim.PipelineConfig
	frames []adsim.FrameResult
	prior  *slam.PriorMap
}

func record(seed int64) (*recording, error) {
	s, _ := findWorkload("solo_latency")
	cfg := s.config(seed, dnn.NewExecutor(workers))
	p, err := adsim.NewPipelineFromConfig(cfg)
	if err != nil {
		return nil, err
	}
	rec := &recording{cfg: cfg, prior: p.Localizer().Map()}
	for i := 0; i < isolationFrames; i++ {
		res, err := p.Step()
		if err != nil {
			return nil, fmt.Errorf("recording frame %d: %w", i, err)
		}
		rec.frames = append(rec.frames, res)
	}
	return rec, nil
}

// isolation times direct calls into each layer's public functions on the
// recorded frames. minDur is the per-loop floor (0.3 s standalone; the
// driver's time cap shrinks it). tmp is a scratch directory inside the
// checkout for the shard-store tiles.
func isolation(seed int64, minDur time.Duration, tmp string) (map[string]layerValue, error) {
	rec, err := record(seed)
	if err != nil {
		return nil, err
	}
	out := map[string]layerValue{}
	ns := func(op func()) float64 { return timeOp(minDur, op) }
	frame := func(i int) *adsim.FrameResult { return &rec.frames[i%isolationFrames] }
	i := 0 // rolling frame cursor shared by the per-frame ops

	// scene
	gen, err := scene.New(rec.cfg.Scene)
	if err != nil {
		return nil, err
	}
	out["scene.step_ms"] = val(ns(func() { sink = gen.Step() }) / 1e6)

	// tensor: TinyYOLO(64)'s second conv layer, 8→16 channels 3×3 on 32×32.
	const inC, outC, k, hw = 8, 16, 3, 32
	in := tensor.New(inC, hw, hw)
	rng := stats.NewRNG(seed)
	for j := range in.Data {
		in.Data[j] = float32(rng.Uniform(-1, 1))
	}
	weights := make([]float32, outC*inC*k*k)
	for j := range weights {
		weights[j] = float32(rng.Uniform(-0.1, 0.1))
	}
	bias := make([]float32, outC)
	var arena tensor.Scratch
	dst := tensor.New(outC, hw, hw)
	conv := func(w int) func() {
		return func() { tensor.Conv2DIm2ColParInto(dst, in, weights, bias, outC, k, 1, 1, w, &arena) }
	}
	out["tensor.conv_ms.w1"] = val(ns(conv(1)) / 1e6)
	convW2 := ns(conv(workers))
	out["tensor.conv_ms.w2"] = val(convW2 / 1e6)
	out["tensor.conv_allocs.w2"] = val(testing.AllocsPerRun(50, conv(workers)))
	macs := float64(outC * inC * k * k * hw * hw)
	out["tensor.conv_gmacs.w2"] = val(macs / convW2) // MACs per ns = GMAC/s
	const batch = 4
	ins, dsts := make([]*tensor.T, batch), make([]*tensor.T, batch)
	for b := range ins {
		ins[b], dsts[b] = in, tensor.New(outC, hw, hw)
	}
	out["tensor.batch_conv_ms_per_sample.b4"] = val(ns(func() {
		tensor.Conv2DIm2ColBatchInto(dsts, ins, weights, bias, outC, k, 1, 1, workers, &arena)
	}) / 1e6 / batch)
	// The tracker head's first FC layer: 1024 → 64.
	fcIn, fcW, fcB := tensor.NewVec(1024), make([]float32, 64*1024), make([]float32, 64)
	fcDst := tensor.NewVec(64)
	out["tensor.fc_us.w2"] = val(ns(func() { tensor.FullyConnectedParInto(fcDst, fcIn, fcW, fcB, 64, workers) }) / 1e3)
	poolDst := tensor.New(outC, hw/2, hw/2)
	out["tensor.maxpool_us"] = val(ns(func() { tensor.MaxPool2DInto(poolDst, dst, 2, 2) }) / 1e3)

	// dnn
	det, tower := dnn.TinyYOLO(64), dnn.TinyTrackerTower(32)
	detIn, towerIn := tensor.New(1, 64, 64), tensor.New(1, 32, 32)
	solo, gather := dnn.NewExecutor(workers), dnn.NewBatchExecutor(workers)
	var sc dnn.Scratch
	fwd := func() { sink = solo.Forward(det, detIn, &sc) }
	out["dnn.forward_ms.det"] = val(ns(fwd) / 1e6)
	out["dnn.forward_ms.tower"] = val(ns(func() { sink = solo.Forward(tower, towerIn, &sc) }) / 1e6)
	out["dnn.forward_allocs.det"] = val(testing.AllocsPerRun(50, fwd))
	bIns, bScs := make([]*tensor.T, batch), make([]*dnn.Scratch, batch)
	for b := range bIns {
		bIns[b], bScs[b] = detIn, &dnn.Scratch{}
	}
	var bOuts []*tensor.T
	out["dnn.batch4_ms_per_sample.det"] = val(ns(func() { bOuts = solo.ForwardBatch(det, bIns, bScs, bOuts) }) / 1e6 / batch)
	// The two comparisons are differences of near-equal times, so their
	// sides alternate inside one loop: host drift between two separately
	// timed loops is larger than the effect.
	var plainT, gatherT, batchT time.Duration
	ns(func() {
		t0 := time.Now()
		sink = solo.Forward(det, detIn, &sc)
		t1 := time.Now()
		sink = gather.Forward(det, detIn, &sc)
		t2 := time.Now()
		bOuts = solo.ForwardBatch(det, bIns, bScs, bOuts)
		plainT, gatherT, batchT = plainT+t1.Sub(t0), gatherT+t2.Sub(t1), batchT+time.Since(t2)
	})
	out["dnn.batch_gain"] = val(float64(plainT) * batch / float64(batchT))
	out["dnn.gather_overhead_us"] = val(float64(gatherT-plainT) / float64(plainT) * out["dnn.forward_ms.det"].Value * 1e3)

	// detect
	detector, err := detect.New(rec.cfg.Detect)
	if err != nil {
		return nil, err
	}
	var detOther time.Duration
	detCalls := 0
	detNs := ns(func() {
		_, tm := detector.DetectTimed(frame(i).Frame.Image)
		detOther += tm.Other
		detCalls++
		i++
	})
	out["detect.detect_ms"] = val(detNs / 1e6)
	out["detect.other_ms"] = val(float64(detOther) / float64(detCalls) / 1e6)

	// track: one op replays all recorded frames through a fresh engine, so
	// the table sees a continuous stream; networks come from one cache.
	tcfg := rec.cfg.Track
	tcfg.Nets = dnn.NewNetCache()
	objects, steps := 0, 0
	trackNs := ns(func() {
		eng, err := track.New(tcfg)
		if err != nil {
			panic(err) // the same config built the recording's engine
		}
		for f := range rec.frames {
			dets := make([]track.Detection, len(rec.frames[f].Detections))
			for j, d := range rec.frames[f].Detections {
				dets[j] = track.Detection{Box: d.Box, Class: d.Class}
			}
			tracks, _ := eng.Step(rec.frames[f].Frame.Image, dets)
			objects += len(tracks)
			steps++
		}
	}) / isolationFrames
	out["track.step_ms"] = val(trackNs / 1e6)
	if objects > 0 {
		out["track.step_ms_per_object"] = val(trackNs / 1e6 / (float64(objects) / float64(steps)))
	} else {
		out["track.step_ms_per_object"] = na("the recorded frames hold no tracked objects")
	}

	// slam
	var fe slam.FEScratch
	out["slam.extract_ms"] = val(ns(func() {
		sink, _ = slam.ExtractFeaturesScratch(frame(i).Frame.Image, rec.cfg.SLAM.FAST, &fe)
		i++
	}) / 1e6)
	out["slam.localize_ms"] = val(ns(func() {
		eng, err := slam.NewEngine(rec.cfg.SLAM, rec.prior)
		if err != nil {
			panic(err) // the same config built the recording's engine
		}
		for f := range rec.frames {
			sink, _ = eng.LocalizeTimed(rec.frames[f].Frame.Image)
		}
	}) / isolationFrames / 1e6)
	_, descA := slam.ExtractFeatures(rec.frames[0].Frame.Image, rec.cfg.SLAM.FAST)
	kpsB, descB := slam.ExtractFeatures(rec.frames[1].Frame.Image, rec.cfg.SLAM.FAST)
	out["slam.match_us"] = val(ns(func() {
		sink = slam.MatchDescriptors(descA, descB, rec.cfg.SLAM.MatchMaxDist, rec.cfg.SLAM.MatchRatio)
	}) / 1e3)
	span := rec.frames[isolationFrames-1].Frame.EgoPose.Z
	z := 0.0
	sweep := func() float64 {
		if z += 1.7; z > span {
			z = 0
		}
		return z
	}
	out["slam.candidates_us"] = val(ns(func() { sink = rec.prior.Candidates(sweep(), rec.cfg.SLAM.TrackWindow) }) / 1e3)
	grow := slam.NewPriorMap()
	addZ := 0.0
	out["slam.add_us"] = val(ns(func() {
		addZ += rec.cfg.SLAM.KeyframeSpacing
		grow.Add(scene.Pose{Z: addZ}, kpsB, descB)
	}) / 1e3)

	// slam shard store: the recorded map tiled to disk, read cold (fresh
	// store, first tile load) and warm (resident tile), then swept under a
	// two-tile cache budget for the hit share.
	dir := filepath.Join(tmp, "shards")
	idx, err := slam.WriteShards(rec.prior, dir, 16)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var shardErr error
	out["slam.shard_cold_ms"] = val(ns(func() {
		st, err := slam.OpenShardStore(dir, slam.ShardStoreOptions{})
		if err != nil {
			shardErr = err
			return
		}
		sink = st.Candidates(1, rec.cfg.SLAM.TrackWindow)
		st.Close()
	}) / 1e6)
	warm, err := slam.OpenShardStore(dir, slam.ShardStoreOptions{})
	if err != nil {
		return nil, err
	}
	out["slam.shard_warm_us"] = val(ns(func() { sink = warm.Candidates(1, rec.cfg.SLAM.TrackWindow) }) / 1e3)
	warm.Close()
	tight, err := slam.OpenShardStore(dir, slam.ShardStoreOptions{CacheBudget: 2 * idx.Bytes / int64(max(len(idx.Tiles), 1))})
	if err != nil {
		return nil, err
	}
	for pass := 0; pass < 4; pass++ {
		for zz := 0.0; zz <= span; zz += 1.7 {
			tight.Candidates(zz, rec.cfg.SLAM.TrackWindow)
		}
	}
	cs := tight.CacheStats()
	tight.Close()
	if shardErr != nil {
		return nil, shardErr
	}
	out["slam.shard_hit_share"] = val(float64(cs.Hits) / float64(cs.Hits+cs.Misses))

	// fusion, mission, plan, control: driven with the recorded products.
	fuse, err := fusion.New(scene.StandardCamera(rec.cfg.Scene.Width, rec.cfg.Scene.Height), rec.cfg.Scene.FPS)
	if err != nil {
		return nil, err
	}
	tracked := make([][]fusion.TrackedObject, isolationFrames)
	obstacles := make([][]plan.Obstacle, isolationFrames)
	for f, res := range rec.frames {
		for _, tr := range res.Tracks {
			tracked[f] = append(tracked[f], fusion.TrackedObject{ID: tr.ID, Class: tr.Class, Box: tr.Box, VX: tr.VX, VY: tr.VY})
		}
		for _, o := range res.Fused.Objects {
			obstacles[f] = append(obstacles[f], plan.Obstacle{X: o.X, Z: o.Z, Radius: o.Width/2 + 0.5, VX: o.VX, VZ: o.VZ})
		}
	}
	out["fusion.fuse_us"] = val(ns(func() {
		f := i % isolationFrames
		sink = fuse.Fuse(rec.frames[f].Pose.Pose, tracked[f])
		i++
	}) / 1e3)
	grid, err := mission.GridGraph(8, 8, 100)
	if err != nil {
		return nil, err
	}
	out["mission.route_us"] = val(ns(func() { sink, _ = grid.PlanRoute(0, mission.NodeID(grid.NumNodes()-1)) }) / 1e3)
	planner := plan.NewPlanner(rec.cfg.Plan)
	out["plan.plan_us"] = val(ns(func() {
		f := i % isolationFrames
		pose := rec.frames[f].Pose.Pose
		sink, _ = planner.Plan(pose.X, pose.Z, obstacles[f], 0)
		i++
	}) / 1e3)
	ctl, err := control.New(rec.cfg.Control)
	if err != nil {
		return nil, err
	}
	out["control.track_us"] = val(ns(func() {
		res := frame(i)
		sink = ctl.Track(control.State{
			X: res.Pose.Pose.X, Z: res.Pose.Pose.Z, Theta: res.Pose.Pose.Theta, Speed: rec.cfg.Scene.EgoSpeed,
		}, res.Plan.Path)
		i++
	}) / 1e3)

	// the always-on instrumentation the ≤5 % telemetry bar is about
	inj, err := stallInjector(seed)
	if err != nil {
		return nil, err
	}
	out["faultinject.stage_ns"] = val(ns(func() { sink, _ = inj.Stage("DET", i); i++ }))
	mon := constraint.NewMonitor(constraint.MonitorConfig{})
	out["constraint.monitor_fold_ns"] = val(ns(func() {
		mon.FrameDone(telemetry.FrameEnd{Frame: i, Wall: 12 * time.Millisecond})
		i++
	}))
	col := telemetry.NewCollector(0)
	out["telemetry.collector_span_ns"] = val(ns(func() {
		col.Span(telemetry.Span{Stage: "DET", Frame: i, Queue: time.Millisecond, Exec: 4 * time.Millisecond})
		i++
	}))
	win := stats.NewWindow(0)
	out["stats.window_add_ns"] = val(ns(func() { win.Add(float64(i%97) + 0.5); i++ }))
	src, err := scenarios.FS.ReadFile("mixed-stress.adsc")
	if err != nil {
		return nil, err
	}
	out["scenario.parse_us"] = val(ns(func() { sink, _ = scenario.Parse("mixed-stress", string(src)) }) / 1e3)
	return out, nil
}

// isolationSkipped marks every isolation metric n/a (quick runs and the
// all-workloads driver, which runs the pass once, not once per workload).
func isolationSkipped(out map[string]layerValue, why string) {
	for _, m := range perLayer {
		if _, ok := out[m.Name]; !ok {
			out[m.Name] = na(why)
		}
	}
}
