package experiment

import (
	"fmt"

	"adsim/internal/accel"
	"adsim/internal/power"
)

// NumCameras is the paper's end-to-end sensor fit: eight cameras (as on a
// Tesla), each paired with a replica of the computing engine.
const NumCameras = 8

// runFig12 reproduces Figure 12: end-to-end power consumption (8-camera
// compute, then with storage and cooling added) and driving-range
// reduction per configuration (8 cameras, 41 TB map storage, COP-1.3
// cooling).
func runFig12(Options) (*Table, error) {
	m := accel.NewModel()
	s := Section{Cols: []Col{
		{"DET/TRA/LOC", "%-18s", "%-18s"}, {"ComputeW", " %12s", " %12.0f"},
		{"SystemW", " %12s", " %12.0f"}, {"Range-%", " %10s", " %10.1f"},
	}}
	for _, a := range figureConfigs() {
		computeW := float64(NumCameras) * a.ComputePowerW(m)
		sys := power.System(computeW, power.USMapTB).Total()
		s.Rows = append(s.Rows, []any{a.Short(), computeW, sys, 100 * power.RangeReduction(sys)})
	}
	return &Table{Sections: []Section{s}, Note: fmt.Sprintf(`
(%d cameras, each with a computing-engine replica; %.0f TB prior map;
cooling at COP 1.3. GPU-heavy configurations exceed 1 kW and cut range
by >10%%; FPGA/ASIC configurations stay within ~5%%.)
`, NumCameras, power.USMapTB)}, nil
}
