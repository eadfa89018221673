package accel

import (
	"math"
	"testing"

	"adsim/internal/stats"
)

func TestPlatformEngineStrings(t *testing.T) {
	if CPU.String() != "CPU" || ASIC.String() != "ASIC" {
		t.Error("platform names wrong")
	}
	if DET.String() != "DET" || LOC.String() != "LOC" {
		t.Error("engine names wrong")
	}
	if Platform(9).String() != "platform(9)" || Engine(9).String() != "engine(9)" {
		t.Error("out-of-range formatting wrong")
	}
	if len(Platforms()) != NumPlatforms || len(Engines()) != NumEngines {
		t.Error("enumeration lengths wrong")
	}
}

func TestTables(t *testing.T) {
	if len(Table1()) != 4 {
		t.Error("Table 1 should have 4 manufacturers")
	}
	if len(Table2()) != 6 {
		t.Error("Table 2 should list 6 platforms (4 classes, 3 ASICs)")
	}
	t3 := Table3()
	if t3.ClockGHz != 4.0 || t3.PowerMilliW != 21.97 || t3.AreaUm2 != 6539.9 {
		t.Errorf("Table 3 = %+v", t3)
	}
}

func TestResolutionScaling(t *testing.T) {
	if Res1080p.Pixels() != 1920*1080 {
		t.Error("pixel count wrong")
	}
	s := Res1440p.ScaleFrom(Res720p)
	if math.Abs(s-4.0) > 1e-9 {
		t.Errorf("QHD/HD scale = %v, want 4", s)
	}
	if len(SweepResolutions()) != 5 {
		t.Error("Fig 13 sweep should have 5 resolutions")
	}
}

func TestWorkloadProfiles(t *testing.T) {
	w := PaperWorkloads()
	if w.Det.MACs < 1e10 || w.Det.ConvMACs == 0 {
		t.Error("DET workload implausible")
	}
	if w.Tra.FCMACs == 0 || w.Tra.ConvMACs == 0 {
		t.Error("TRA workload missing conv/fc split")
	}
	if w.LocFEOps <= 0 {
		t.Error("LOC FE ops missing")
	}
	// Resolution scaling: conv scales, FC does not.
	base := w.TraMACsAt(ResKITTI)
	scaled := w.TraMACsAt(Res1440p)
	pureScale := ResKITTI.Pixels()
	_ = pureScale
	if scaled <= base {
		t.Error("TRA MACs should grow with resolution")
	}
	ratio := scaled / base
	pixRatio := Res1440p.ScaleFrom(ResKITTI)
	if ratio >= pixRatio {
		t.Errorf("TRA scaling %.2f should be sub-linear in pixels (%.2f) due to fixed FC", ratio, pixRatio)
	}
}

func TestMeanLatencyMatchesCalibrationPoints(t *testing.T) {
	m := NewModel()
	for _, p := range Platforms() {
		for _, e := range Engines() {
			got := m.MeanLatency(p, e, ResKITTI)
			want := PaperMean(p, e)
			// LOC includes the tiny relocalization mean contribution.
			tol := 0.005 * want
			if e == LOC {
				tol = 0.02*want + 0.6
			}
			if math.Abs(got-want) > tol {
				t.Errorf("%v/%v mean = %.2f, want %.2f", p, e, got, want)
			}
		}
	}
}

func TestSampledTailsMatchPaper(t *testing.T) {
	m := NewModel()
	rng := stats.NewRNG(42)
	for _, p := range Platforms() {
		for _, e := range Engines() {
			d := stats.NewDistribution(60000)
			for i := 0; i < 60000; i++ {
				d.Add(m.Sample(p, e, ResKITTI, rng))
			}
			wantTail := PaperTail(p, e)
			gotTail := d.P9999()
			relErr := math.Abs(gotTail-wantTail) / wantTail
			if relErr > 0.15 {
				t.Errorf("%v/%v sampled P99.99 = %.1f, paper %.1f (rel %.2f)",
					p, e, gotTail, wantTail, relErr)
			}
			// Sampled mean must track the calibration mean.
			if meanErr := math.Abs(d.Mean()-PaperMean(p, e)) / PaperMean(p, e); meanErr > 0.05 {
				t.Errorf("%v/%v sampled mean = %.1f, paper %.1f", p, e, d.Mean(), PaperMean(p, e))
			}
		}
	}
}

func TestFixedLatencyPlatformsHaveNoJitter(t *testing.T) {
	m := NewModel()
	rng := stats.NewRNG(7)
	for _, p := range []Platform{FPGA, ASIC} {
		for _, e := range Engines() {
			first := m.Sample(p, e, ResKITTI, rng)
			for i := 0; i < 100; i++ {
				if s := m.Sample(p, e, ResKITTI, rng); s != first {
					t.Fatalf("%v/%v not deterministic: %v vs %v", p, e, s, first)
				}
			}
		}
	}
}

func TestRelocalizationDrivesLOCTail(t *testing.T) {
	m := NewModel()
	rng := stats.NewRNG(9)
	spikes := 0
	n := 20000
	threshold := PaperMean(CPU, LOC) * 3
	for i := 0; i < n; i++ {
		if m.Sample(CPU, LOC, ResKITTI, rng) > threshold {
			spikes++
		}
	}
	rate := float64(spikes) / float64(n)
	if rate < relocProbability/2 || rate > relocProbability*2 {
		t.Errorf("spike rate %.5f, want ~%.5f", rate, relocProbability)
	}
}

func TestLatencyScalesWithResolution(t *testing.T) {
	m := NewModel()
	for _, p := range Platforms() {
		for _, e := range Engines() {
			lo := m.MeanLatency(p, e, ResHHD)
			hi := m.MeanLatency(p, e, Res1440p)
			if hi <= lo {
				t.Errorf("%v/%v latency does not grow with resolution", p, e)
			}
		}
	}
	// DET is fully convolutional: scaling should be exactly the pixel ratio.
	detRatio := m.MeanLatency(GPU, DET, Res1440p) / m.MeanLatency(GPU, DET, ResHHD)
	pixRatio := Res1440p.ScaleFrom(ResHHD)
	if math.Abs(detRatio-pixRatio) > 0.01*pixRatio {
		t.Errorf("DET scaling %.2f != pixel ratio %.2f", detRatio, pixRatio)
	}
}

func TestHeadlineTailReductions(t *testing.T) {
	// The paper's headline: GPU/FPGA/ASIC reduce end-to-end tail latency
	// by 169x/10x/93x. End-to-end tail = max(LOC, DET+TRA) of Fig 10b.
	e2e := func(p Platform) float64 {
		detTra := PaperTail(p, DET) + PaperTail(p, TRA)
		loc := PaperTail(p, LOC)
		return math.Max(detTra, loc)
	}
	base := e2e(CPU)
	for _, c := range []struct {
		p    Platform
		want float64
	}{{GPU, 169}, {FPGA, 10}, {ASIC, 93}} {
		got := base / e2e(c.p)
		if math.Abs(got-c.want)/c.want > 0.02 {
			t.Errorf("%v tail reduction = %.1fx, paper says %.0fx", c.p, got, c.want)
		}
	}
}

func TestPowerTable(t *testing.T) {
	m := NewModel()
	if m.Power(GPU, TRA) != 55.0 {
		t.Error("GPU TRA power wrong")
	}
	// Finding 3: specialized hardware beats general-purpose on power for
	// every engine.
	for _, e := range Engines() {
		if m.Power(ASIC, e) >= m.Power(GPU, e) || m.Power(FPGA, e) >= m.Power(CPU, e) {
			t.Errorf("power ordering violated for %v", e)
		}
	}
}

func TestFitLogNormalSigma(t *testing.T) {
	if fitLogNormalSigma(1.0) != 0 || fitLogNormalSigma(0.5) != 0 {
		t.Error("ratio <= 1 should give zero sigma")
	}
	// Round trip: the fitted sigma reproduces the ratio at the tail z.
	for _, ratio := range []float64{1.05, 1.3, 2.0, 7.0} {
		s := fitLogNormalSigma(ratio)
		got := math.Exp(s*tailZ - s*s/2)
		if math.Abs(got-ratio)/ratio > 1e-9 {
			t.Errorf("sigma fit for %.2f reproduces %.4f", ratio, got)
		}
	}
}

func TestFusionMotPlanSamples(t *testing.T) {
	m := NewModel()
	rng := stats.NewRNG(3)
	var fuseSum, planSum float64
	n := 20000
	for i := 0; i < n; i++ {
		fuseSum += m.SampleFusion(rng)
		planSum += m.SampleMotPlan(rng)
	}
	if math.Abs(fuseSum/float64(n)-FusionMeanMs) > 0.01 {
		t.Errorf("fusion mean = %v", fuseSum/float64(n))
	}
	if math.Abs(planSum/float64(n)-MotPlanMeanMs) > 0.05 {
		t.Errorf("motplan mean = %v", planSum/float64(n))
	}
}
