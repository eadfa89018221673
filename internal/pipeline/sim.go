package pipeline

import (
	"fmt"

	"adsim/internal/accel"
	"adsim/internal/stats"
)

// Assignment maps each computational bottleneck to a platform — one
// configuration on the x-axis of the paper's Figures 11 and 12.
type Assignment struct {
	Det, Tra, Loc accel.Platform
}

// Uniform returns the assignment running every engine on p.
func Uniform(p accel.Platform) Assignment { return Assignment{Det: p, Tra: p, Loc: p} }

func (a Assignment) String() string {
	return fmt.Sprintf("DET=%v TRA=%v LOC=%v", a.Det, a.Tra, a.Loc)
}

// Short returns a compact label like "GPU/ASIC/ASIC" (DET/TRA/LOC order).
func (a Assignment) Short() string {
	return fmt.Sprintf("%v/%v/%v", a.Det, a.Tra, a.Loc)
}

// ComputePowerW returns the per-camera computing power of the assignment:
// the sum of the three engines' platform powers (Fig 10c).
func (a Assignment) ComputePowerW(m *accel.Model) float64 {
	return m.Power(a.Det, accel.DET) + m.Power(a.Tra, accel.TRA) + m.Power(a.Loc, accel.LOC)
}

// SimConfig parameterizes a simulated run.
type SimConfig struct {
	Assignment Assignment
	Res        accel.Resolution
	Frames     int
	Seed       int64
	// IndependentNoise disables the shared per-platform interference draw
	// so each engine's execution noise is independent. Used by the
	// noise-correlation ablation; the default (false) matches the paper's
	// tail composition.
	IndependentNoise bool
}

// SimResult holds the latency distributions of a simulated run (all in ms).
type SimResult struct {
	Det, Tra, Loc   *stats.Distribution
	Fusion, MotPlan *stats.Distribution
	E2E             *stats.Distribution
	Assignment      Assignment
	Res             accel.Resolution
}

// Simulate runs the latency composition for cfg.Frames frames: per-frame
// samples of DET, TRA, LOC, FUSION and MOTPLAN are drawn from the platform
// models and combined by the pipeline's dependency law, CriticalPath, with
// SRC, MISPLAN and CONTROL unmodeled (zero).
func Simulate(m *accel.Model, cfg SimConfig) (SimResult, error) {
	if cfg.Frames <= 0 {
		return SimResult{}, fmt.Errorf("pipeline: Frames %d must be positive", cfg.Frames)
	}
	if cfg.Res.Pixels() <= 0 {
		cfg.Res = accel.ResKITTI
	}
	rng := stats.NewRNG(cfg.Seed)
	res := SimResult{
		Det:        stats.NewDistribution(cfg.Frames),
		Tra:        stats.NewDistribution(cfg.Frames),
		Loc:        stats.NewDistribution(cfg.Frames),
		Fusion:     stats.NewDistribution(cfg.Frames),
		MotPlan:    stats.NewDistribution(cfg.Frames),
		E2E:        stats.NewDistribution(cfg.Frames),
		Assignment: cfg.Assignment,
		Res:        cfg.Res,
	}
	for range cfg.Frames {
		// One execution-noise draw per platform per frame: engines
		// co-located on a platform see common interference, so their
		// latency excursions correlate (see accel.SampleShared).
		var z [accel.NumPlatforms]float64
		for p := range z {
			z[p] = rng.Normal(0, 1)
		}
		zOf := func(p accel.Platform) float64 {
			if cfg.IndependentNoise {
				return rng.Normal(0, 1)
			}
			return z[p]
		}
		det := m.SampleShared(cfg.Assignment.Det, accel.DET, cfg.Res, zOf(cfg.Assignment.Det), rng)
		tra := m.SampleShared(cfg.Assignment.Tra, accel.TRA, cfg.Res, zOf(cfg.Assignment.Tra), rng)
		loc := m.SampleShared(cfg.Assignment.Loc, accel.LOC, cfg.Res, zOf(cfg.Assignment.Loc), rng)
		fuse := m.SampleFusion(rng)
		mot := m.SampleMotPlan(rng)

		d := [NumStages]float64{StageDet: det, StageTra: tra, StageLoc: loc, StageFusion: fuse, StageMotplan: mot}
		e2e := CriticalPath(d)
		res.Det.Add(det)
		res.Tra.Add(tra)
		res.Loc.Add(loc)
		res.Fusion.Add(fuse)
		res.MotPlan.Add(mot)
		res.E2E.Add(e2e)
	}
	return res, nil
}
