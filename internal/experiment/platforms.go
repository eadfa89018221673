package experiment

import (
	"fmt"

	"adsim/internal/accel"
)

// runPlatformAnalysis is an extension experiment: it inverts the latency
// calibration to show what hardware efficiency (or, for the extrapolated
// ASICs, what number of processing units) the paper's measurements imply:
// each (platform, engine) row relates the calibrated effective throughput
// to the Table 2 single-device peak, connecting the reproduction's models
// back to the specifications.
func runPlatformAnalysis(Options) (*Table, error) {
	m := accel.NewModel()
	w := m.Workloads()
	s := Section{Cols: []Col{
		{"Platform", "%-9s", "%-9s"}, {"Engine", " %-7s", " %-7s"}, {"effective", " %14s", " %11.1f GMAC/s"},
		{"peak", " %14s", " %8.1f GMAC/s"}, {"implied eff", " %12s", " %12s"},
	}}
	for _, p := range accel.Platforms() {
		for _, e := range accel.Engines() {
			var effGMACs float64
			switch e {
			case accel.DET:
				effGMACs = w.DetMACsAt(accel.ResKITTI) / accel.PaperMean(p, e) / 1e6
			case accel.TRA:
				effGMACs = w.TraMACsAt(accel.ResKITTI) / accel.PaperMean(p, e) / 1e6
			default:
				// LOC throughput is over FE ops; comparable units.
				effGMACs = w.LocFEOpsAt(accel.ResKITTI) / accel.PaperMean(p, e) / 1e6
			}
			peak := peakGMACs(p, e)
			// Above 1, the efficiency reads as a unit count.
			ratio := effGMACs / peak
			eff := fmt.Sprintf("%.1f%%", 100*ratio)
			if ratio > 1 {
				eff = fmt.Sprintf("%.1fx units", ratio)
			}
			s.Rows = append(s.Rows, []any{p, e, effGMACs, peak, eff})
		}
	}
	return &Table{Sections: []Section{s}, Note: `
Readings: the GPU sustains ~25% of peak on the conv-heavy DET (typical
for cuDNN-era kernels) and far less on the memory-bound FC-heavy TRA;
the CPU numbers imply <1% of peak (framework + memory overheads, as the
paper measured); FPGA DET is DSP-limited near 20% of fabric peak; the
ASIC rows above 1x reflect the paper extrapolating published designs
'based on the amount of processing units needed'.
`}, nil
}

// peakGMACs returns the single-device peak MAC throughput implied by the
// Table 2 specification for the platform (and for ASIC, for the specific
// engine's accelerator: Eyeriss for DET/TRA conv, EIE for FC, the Table 3
// FE ASIC for LOC).
func peakGMACs(p accel.Platform, e accel.Engine) float64 {
	switch p {
	case accel.CPU:
		// 16 cores × 3.2 GHz × 8 SP MACs/cycle (AVX2 FMA).
		return 16 * 3.2 * 8
	case accel.GPU:
		// 3584 CUDA cores × 1.4 GHz × 1 FMA/cycle.
		return 3584 * 1.4
	case accel.FPGA:
		// 256 DSPs × 0.8 GHz × 1 MAC/cycle.
		return 256 * 0.8
	default:
		switch e {
		case accel.DET, accel.TRA:
			// Eyeriss: 168 PEs × 0.2 GHz.
			return 168 * 0.2
		default:
			// Table 3 FE ASIC: a single 4 GHz pipeline, 1 op/cycle.
			return 4.0
		}
	}
}
