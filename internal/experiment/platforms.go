package experiment

import (
	"fmt"
	"strings"

	"adsim/internal/accel"
)

func init() { register("platform-analysis", runPlatformAnalysis) }

// PlatformAnalysisRow relates a platform's calibrated effective throughput
// on one engine to its Table 2 peak, yielding the implied efficiency (or,
// for the extrapolated ASICs, the implied number of processing units).
type PlatformAnalysisRow struct {
	Platform   accel.Platform
	Engine     accel.Engine
	EffGMACs   float64 // effective throughput from the calibration (GMAC/s)
	PeakGMACs  float64 // single-device peak from Table 2 specs
	Efficiency float64 // Eff/Peak; >1 means multiple units were assumed
}

// PlatformAnalysisResult is an extension experiment: it inverts the
// latency calibration to show what hardware efficiency (or unit count) the
// paper's measurements imply, connecting the reproduction's models back to
// the Table 2 specifications.
type PlatformAnalysisResult struct {
	Rows []PlatformAnalysisRow
}

func (r PlatformAnalysisResult) Render() string {
	var b strings.Builder
	b.WriteString(header("platform-analysis", "Implied efficiency vs. Table 2 peaks (extension)"))
	fmt.Fprintf(&b, "%-9s %-7s %14s %14s %12s\n",
		"Platform", "Engine", "effective", "peak", "implied eff")
	for _, row := range r.Rows {
		eff := fmt.Sprintf("%.1f%%", 100*row.Efficiency)
		if row.Efficiency > 1 {
			eff = fmt.Sprintf("%.1fx units", row.Efficiency)
		}
		fmt.Fprintf(&b, "%-9s %-7s %11.1f GMAC/s %8.1f GMAC/s %12s\n",
			row.Platform, row.Engine, row.EffGMACs, row.PeakGMACs, eff)
	}
	b.WriteString("\nReadings: the GPU sustains ~25% of peak on the conv-heavy DET (typical\n")
	b.WriteString("for cuDNN-era kernels) and far less on the memory-bound FC-heavy TRA;\n")
	b.WriteString("the CPU numbers imply <1% of peak (framework + memory overheads, as the\n")
	b.WriteString("paper measured); FPGA DET is DSP-limited near 20% of fabric peak; the\n")
	b.WriteString("ASIC rows above 1x reflect the paper extrapolating published designs\n")
	b.WriteString("'based on the amount of processing units needed'.\n")
	return b.String()
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

func runPlatformAnalysis(Options) (Result, error) {
	m := accel.NewModel()
	w := m.Workloads()
	var rows []PlatformAnalysisRow
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
			rows = append(rows, PlatformAnalysisRow{
				Platform:   p,
				Engine:     e,
				EffGMACs:   effGMACs,
				PeakGMACs:  peak,
				Efficiency: effGMACs / peak,
			})
		}
	}
	return PlatformAnalysisResult{Rows: rows}, nil
}
