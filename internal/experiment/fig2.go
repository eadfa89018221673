package experiment

import "adsim/internal/power"

// runFig2 reproduces Figure 2 (driving range reduction on a Chevy Bolt):
// each engine preset's power and the resulting driving-range reduction,
// for the computing engine alone and for the entire system (storage +
// cooling) in aggregate. The presets are the paper's: a host CPU (250 W
// server) plus accelerator boards.
func runFig2(Options) (*Table, error) {
	s := Section{Cols: []Col{
		{"Config", "%-12s", "%-12s"}, {"ComputeW", " %12s", " %12.0f"}, {"Range-%", " %12s", " %12.1f"},
		{"SystemW", " %12s", " %12.0f"}, {"Range-%", " %12s", " %12.1f"},
	}}
	for _, p := range []struct {
		name     string
		computeW float64
	}{
		{"CPU+FPGA", 250 + 40},
		{"CPU+GPU", 250 + 250},
		{"CPU+3GPUs", 250 + 3*250}, // the paper's ~1 kW full-utilization point
	} {
		sys := power.System(p.computeW, power.USMapTB).Total()
		s.Rows = append(s.Rows, []any{p.name, p.computeW, 100 * power.RangeReduction(p.computeW),
			sys, 100 * power.RangeReduction(sys)})
	}
	return &Table{Sections: []Section{s}, Note: `
(compute engine alone on the left columns; entire system — storage for
the 41 TB US prior map plus COP-1.3 cooling — on the right)
`}, nil
}
