package adsim

import (
	"strings"
	"testing"
)

func TestFacadePipeline(t *testing.T) {
	cfg := DefaultPipelineConfig(Urban)
	cfg.Scene.Width, cfg.Scene.Height = 384, 192
	cfg.SurveyFrames = 10
	cfg.Detect.RunDNN = false
	cfg.Track.RunDNN = false
	p, err := NewPipelineFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.E2E <= 0 {
		t.Error("no end-to-end timing")
	}
}

func TestFacadeSimulate(t *testing.T) {
	m := NewModel()
	sim, err := Simulate(m, SimConfig{Assignment: Uniform(ASIC), Frames: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sim.E2E.N() != 1000 {
		t.Error("missing samples")
	}
	if sim.E2E.Mean() > 100 {
		t.Error("ASIC config should be well under 100 ms")
	}
}

func TestFacadeConstraints(t *testing.T) {
	d := NewDistribution(50000)
	for i := 0; i < 50000; i++ {
		d.Add(16)
	}
	r := CheckConstraints(ConstraintInput{
		Latency:            d,
		FrameRate:          30,
		AvailableStorageTB: 50,
		ComputePowerW:      140,
		MapTB:              41,
		CoolingCapacityW:   800,
	})
	if !r.Pass() {
		t.Errorf("expected pass:\n%s", r)
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 24 {
		t.Fatalf("experiments = %v", ids)
	}
	opts := DefaultExperimentOptions()
	out, err := RunExperiment("table3", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "21.97") {
		t.Error("table3 output wrong")
	}
	if _, err := RunExperiment("nope", opts); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFacadeShardedMapStore(t *testing.T) {
	m := NewPriorMap()
	for i := 0; i < 12; i++ {
		m.Add(Pose{Z: float64(i * 3)}, nil, nil)
	}
	dir := t.TempDir()
	idx, err := WriteMapShards(m, dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Tiles) < 3 {
		t.Fatalf("expected several tiles, got %d", len(idx.Tiles))
	}
	reg := NewTelemetryRegistry(0)
	store, err := OpenShardStore(dir, ShardStoreOptions{CacheBudget: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Len() != m.Len() {
		t.Fatalf("store holds %d keyframes, want %d", store.Len(), m.Len())
	}
	// A shard store is read-only: the engine's map updates go to an overlay.
	if _, err := NewLOCEngine(DefaultLOCConfig(), store); err != nil {
		t.Fatal(err)
	}
	n := 0
	store.Scan(func(Keyframe) bool { n++; return true })
	if n != m.Len() {
		t.Fatalf("Scan visited %d keyframes, want %d", n, m.Len())
	}
	if reg.Counter("mapstore/misses").Value() == 0 {
		t.Error("scan through a cold cache recorded no misses")
	}
}
