package experiment

import (
	"fmt"
	"strings"

	"adsim/internal/power"
)

func init() { register("fig2", runFig2) }

// Fig2Row is one bar pair of Figure 2: an engine preset's power and the
// resulting driving-range reduction, computed for the computing engine
// alone and for the entire system (storage + cooling) in aggregate.
type Fig2Row struct {
	Config          string
	ComputeW        float64
	ComputeRangePct float64
	SystemW         float64
	SystemRangePct  float64
}

// Fig2Result reproduces Figure 2 (driving range reduction on a Chevy Bolt).
type Fig2Result struct {
	Rows []Fig2Row
}

func (r Fig2Result) Render() string {
	var b strings.Builder
	b.WriteString(header("fig2", "Driving range reduction vs. added power (Chevy Bolt)"))
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %12s\n",
		"Config", "ComputeW", "Range-%", "SystemW", "Range-%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %12.0f %12.1f %12.0f %12.1f\n",
			row.Config, row.ComputeW, row.ComputeRangePct, row.SystemW, row.SystemRangePct)
	}
	b.WriteString("\n(compute engine alone on the left columns; entire system — storage for\n")
	b.WriteString("the 41 TB US prior map plus COP-1.3 cooling — on the right)\n")
	return b.String()
}

// fig2Presets are the paper's computing-engine configurations: host CPU
// (250 W server) plus accelerator boards.
func fig2Presets() []struct {
	Name     string
	ComputeW float64
} {
	return []struct {
		Name     string
		ComputeW float64
	}{
		{"CPU+FPGA", 250 + 40},
		{"CPU+GPU", 250 + 250},
		{"CPU+3GPUs", 250 + 3*250}, // the paper's ~1 kW full-utilization point
	}
}

func runFig2(Options) (Result, error) {
	var rows []Fig2Row
	for _, p := range fig2Presets() {
		sys := power.System(p.ComputeW, power.USMapTB)
		rows = append(rows, Fig2Row{
			Config:          p.Name,
			ComputeW:        p.ComputeW,
			ComputeRangePct: 100 * power.RangeReduction(p.ComputeW),
			SystemW:         sys.Total(),
			SystemRangePct:  100 * power.RangeReduction(sys.Total()),
		})
	}
	return Fig2Result{Rows: rows}, nil
}
