package experiment

import (
	"fmt"
	"strings"

	"adsim/internal/accel"
	"adsim/internal/pipeline"
	"adsim/internal/power"
)

func init() { register("fig12", runFig12) }

// NumCameras is the paper's end-to-end sensor fit: eight cameras (as on a
// Tesla), each paired with a replica of the computing engine.
const NumCameras = 8

// Fig12Row is one configuration's end-to-end power and range impact.
type Fig12Row struct {
	Assignment pipeline.Assignment
	ComputeW   float64 // 8-camera computing power
	SystemW    float64 // + storage + cooling
	RangePct   float64
}

// Fig12Result reproduces Figure 12: end-to-end power consumption and
// driving-range reduction per configuration (8 cameras, 41 TB map storage,
// COP-1.3 cooling).
type Fig12Result struct {
	Rows []Fig12Row
}

func (r Fig12Result) Render() string {
	var b strings.Builder
	b.WriteString(header("fig12", "End-to-end power and driving-range reduction"))
	fmt.Fprintf(&b, "%-18s %12s %12s %10s\n", "DET/TRA/LOC", "ComputeW", "SystemW", "Range-%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %12.0f %12.0f %10.1f\n",
			row.Assignment.Short(), row.ComputeW, row.SystemW, row.RangePct)
	}
	fmt.Fprintf(&b, "\n(%d cameras, each with a computing-engine replica; %.0f TB prior map;\n",
		NumCameras, power.USMapTB)
	b.WriteString("cooling at COP 1.3. GPU-heavy configurations exceed 1 kW and cut range\n")
	b.WriteString("by >10%; FPGA/ASIC configurations stay within ~5%.)\n")
	return b.String()
}

// Row returns the row for an assignment (zero row when absent).
func (r Fig12Result) Row(a pipeline.Assignment) Fig12Row {
	for _, row := range r.Rows {
		if row.Assignment == a {
			return row
		}
	}
	return Fig12Row{}
}

func runFig12(Options) (Result, error) {
	m := accel.NewModel()
	var rows []Fig12Row
	for _, a := range figureConfigs() {
		computeW := float64(NumCameras) * a.ComputePowerW(m)
		sys := power.System(computeW, power.USMapTB)
		rows = append(rows, Fig12Row{
			Assignment: a,
			ComputeW:   computeW,
			SystemW:    sys.Total(),
			RangePct:   100 * power.RangeReduction(sys.Total()),
		})
	}
	return Fig12Result{Rows: rows}, nil
}
