package accel

import (
	"math"

	"adsim/internal/stats"
)

// Model converts workload profiles into per-frame latency samples for every
// (platform, engine) pair, and exposes the per-engine power figures. See
// calib.go for how the model is anchored to the paper's measurements.
type Model struct {
	w Workloads

	// Effective throughputs derived from the calibration points:
	// detRate/traRate in MACs per ms, feRate in FE-ops per ms.
	detRate [NumPlatforms]float64
	traRate [NumPlatforms]float64
	feRate  [NumPlatforms]float64
	// locOther is the host-resident non-FE LOC time (ms).
	locOther float64
	// jitter sigma per platform per engine (log-normal, mean-preserving).
	sigma [NumPlatforms][NumEngines]float64
}

// NewModel builds the platform model from the paper-scale workloads.
func NewModel() *Model {
	m := &Model{w: PaperWorkloads(), locOther: locOtherMs()}
	for _, p := range Platforms() {
		m.detRate[p] = m.w.DetMACsAt(ResKITTI) / paperMeanMs[p][DET]
		m.traRate[p] = m.w.TraMACsAt(ResKITTI) / paperMeanMs[p][TRA]
		m.feRate[p] = m.w.LocFEOpsAt(ResKITTI) / locFEMs(p)

		// Jitter sigmas from the paper's tail/mean ratios (DET, TRA).
		// LOC tails are relocalization-driven, so LOC gets only a modest
		// execution-noise sigma on the software platforms.
		for _, e := range []Engine{DET, TRA} {
			m.sigma[p][e] = fitLogNormalSigma(paperTailMs[p][e] / paperMeanMs[p][e])
		}
	}
	m.sigma[CPU][LOC] = 0.15
	m.sigma[GPU][LOC] = 0.05
	return m
}

// fitLogNormalSigma solves for the sigma of a mean-preserving log-normal
// multiplier exp(sigma·Z − sigma²/2) whose 99.99th-percentile equals ratio:
// sigma²/2 − z·sigma + ln(ratio) = 0.
func fitLogNormalSigma(ratio float64) float64 {
	if ratio <= 1 {
		return 0
	}
	disc := tailZ*tailZ - 2*math.Log(ratio)
	if disc < 0 {
		disc = 0
	}
	return tailZ - math.Sqrt(disc)
}

// Workloads returns the paper-scale workload profiles the model is built on.
func (m *Model) Workloads() Workloads { return m.w }

// MeanLatency returns the expected per-frame latency (ms) of engine e on
// platform p at resolution res. At the paper's base resolution this equals
// the Fig 10a calibration point by construction; at other resolutions the
// convolutional / feature-extraction portions scale with pixel count.
func (m *Model) MeanLatency(p Platform, e Engine, res Resolution) float64 {
	switch e {
	case DET:
		return m.w.DetMACsAt(res) / m.detRate[p]
	case TRA:
		return m.w.TraMACsAt(res) / m.traRate[p]
	default:
		return m.locTrackingMs(p, res) + m.relocMeanContribution(p, res)
	}
}

// locTrackingMs is the LOC latency of a normally-tracking frame.
func (m *Model) locTrackingMs(p Platform, res Resolution) float64 {
	return m.w.LocFEOpsAt(res)/m.feRate[p] + m.locOther
}

// locRelocMs is the LOC latency of a relocalizing frame: feature extraction
// plus the wide map search, both scaling with resolution. At base
// resolution it reproduces the paper's Fig 10b LOC tail.
func (m *Model) locRelocMs(p Platform, res Resolution) float64 {
	if !m.locHasSpikes(p) {
		return m.locTrackingMs(p, res)
	}
	scale := res.ScaleFrom(m.w.BaseRes)
	wideSearch := (paperTailMs[p][LOC] - locFEMs(p) - m.locOther) * scale
	return m.w.LocFEOpsAt(res)/m.feRate[p] + m.locOther + wideSearch
}

// locHasSpikes reports whether relocalization produces latency spikes on p.
// The FPGA/ASIC LOC designs are fixed-latency pipelines provisioned for the
// worst case (Fig 10b shows tail == mean), so they do not spike.
func (m *Model) locHasSpikes(p Platform) bool { return p == CPU || p == GPU }

// relocMeanContribution is the expected extra mean latency contributed by
// relocalization frames.
func (m *Model) relocMeanContribution(p Platform, res Resolution) float64 {
	if !m.locHasSpikes(p) {
		return 0
	}
	return relocProbability * (m.locRelocMs(p, res) - m.locTrackingMs(p, res))
}

// Sample draws one frame's latency (ms) for engine e on platform p at
// resolution res. The RNG drives execution jitter and relocalization
// events; FPGA/ASIC samples are deterministic.
func (m *Model) Sample(p Platform, e Engine, res Resolution, rng *stats.RNG) float64 {
	return m.SampleShared(p, e, res, rng.Normal(0, 1), rng)
}

// SampleShared is Sample with the execution-noise draw z supplied by the
// caller. Engines co-located on one platform experience common interference
// (scheduler activity, memory contention), so the pipeline simulator draws
// one z per platform per frame and shares it across that platform's
// engines — which is also what makes the end-to-end tail compose as the sum
// of component tails, as the paper's Figure 11 shows.
func (m *Model) SampleShared(p Platform, e Engine, res Resolution, z float64, rng *stats.RNG) float64 {
	switch e {
	case DET, TRA:
		return m.MeanLatency(p, e, res) * m.jitterMult(p, e, z)
	default:
		// Relocalization frames are dominated by the wide map search,
		// whose cost is set by the candidate-set size rather than
		// execution noise, so no jitter multiplier applies.
		if m.locHasSpikes(p) && rng.Bernoulli(relocProbability) {
			return m.locRelocMs(p, res)
		}
		return m.locTrackingMs(p, res) * m.jitterMult(p, LOC, z)
	}
}

// jitterMult computes the mean-preserving log-normal execution-noise
// multiplier for (p,e) at noise draw z; 1.0 for fixed-latency platforms.
func (m *Model) jitterMult(p Platform, e Engine, z float64) float64 {
	s := m.sigma[p][e]
	if s == 0 {
		return 1
	}
	return math.Exp(s*z - s*s/2)
}

// LocTrackingLatency returns one normally-tracking LOC frame's latency at
// execution-noise draw z. Exposed for the relocalization ablation.
func (m *Model) LocTrackingLatency(p Platform, res Resolution, z float64) float64 {
	return m.locTrackingMs(p, res) * m.jitterMult(p, LOC, z)
}

// LocRelocLatency returns a relocalization frame's latency (the wide
// map-search path). Exposed for the relocalization ablation.
func (m *Model) LocRelocLatency(p Platform, res Resolution) float64 {
	return m.locRelocMs(p, res)
}

// SampleFusion draws the fusion engine's host-CPU latency for one frame.
func (m *Model) SampleFusion(rng *stats.RNG) float64 {
	return FusionMeanMs * math.Exp(0.1*rng.Normal(0, 1)-0.005)
}

// SampleMotPlan draws the motion planner's host-CPU latency for one frame.
func (m *Model) SampleMotPlan(rng *stats.RNG) float64 {
	return MotPlanMeanMs * math.Exp(0.1*rng.Normal(0, 1)-0.005)
}

// Power returns the measured board power (W) of engine e on platform p for
// a single camera stream (Fig 10c).
func (m *Model) Power(p Platform, e Engine) float64 { return paperPowerW[p][e] }

// PaperMean returns the Fig 10a calibration point (ms).
func PaperMean(p Platform, e Engine) float64 { return paperMeanMs[p][e] }

// PaperTail returns the Fig 10b calibration point (ms).
func PaperTail(p Platform, e Engine) float64 { return paperTailMs[p][e] }
