package experiment

import (
	"fmt"
	"strings"

	"adsim/internal/accel"
)

func init() { register("energy", runEnergy) }

// EnergyRow is one (platform, engine) energy-per-frame figure.
type EnergyRow struct {
	Platform accel.Platform
	Engine   accel.Engine
	// JoulesPerFrame = board power × mean frame latency.
	JoulesPerFrame float64
}

// EnergyResult is an extension experiment: energy per processed frame
// (power × latency), the metric that reveals a subtlety the paper's
// separate latency and power figures imply but never plot — the 200 MHz
// Eyeriss-style DET ASIC is so much slower than the GPU that its 7x power
// advantage does NOT translate into an energy win on DET, while the TRA
// and LOC ASICs win energy by one to three orders of magnitude.
type EnergyResult struct {
	Rows []EnergyRow
}

func (r EnergyResult) Render() string {
	var b strings.Builder
	b.WriteString(header("energy", "Energy per frame = power x latency (extension)"))
	fmt.Fprintf(&b, "%-9s", "")
	for _, e := range accel.Engines() {
		fmt.Fprintf(&b, " %14s", e.String())
	}
	b.WriteString("\n")
	for _, p := range accel.Platforms() {
		fmt.Fprintf(&b, "%-9s", p.String())
		for _, e := range accel.Engines() {
			fmt.Fprintf(&b, " %11.4f J", r.joules(p, e))
		}
		b.WriteString("\n")
	}
	b.WriteString("\nDET: the GPU narrowly beats the 200 MHz CNN ASIC on energy (speed wins);\n")
	b.WriteString("TRA/LOC: the FC and FE ASICs win energy by 1-3 orders of magnitude.\n")
	b.WriteString("CPUs lose on every axis at once.\n")
	return b.String()
}

func (r EnergyResult) joules(p accel.Platform, e accel.Engine) float64 {
	for _, row := range r.Rows {
		if row.Platform == p && row.Engine == e {
			return row.JoulesPerFrame
		}
	}
	return 0
}

func runEnergy(Options) (Result, error) {
	m := accel.NewModel()
	var rows []EnergyRow
	for _, p := range accel.Platforms() {
		for _, e := range accel.Engines() {
			rows = append(rows, EnergyRow{
				Platform:       p,
				Engine:         e,
				JoulesPerFrame: m.Power(p, e) * m.MeanLatency(p, e, accel.ResKITTI) / 1000,
			})
		}
	}
	return EnergyResult{Rows: rows}, nil
}
