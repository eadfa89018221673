package experiment

import (
	"fmt"
	"strings"

	"adsim/internal/accel"
)

func init() {
	register("table1", runTable1)
	register("table2", runTable2)
	register("table3", runTable3)
}

// Table1Result reproduces the paper's industry survey.
type Table1Result struct {
	Rows []accel.IndustrySurveyRow
}

func (r Table1Result) Render() string {
	var b strings.Builder
	b.WriteString(header("table1", "Autonomous driving vehicles under experimentation in industry"))
	fmt.Fprintf(&b, "%-14s %-12s %-14s %s\n", "Manufacturer", "Automation", "Platform", "Sensors")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %-12s %-14s %s\n", row.Manufacturer, row.Automation, row.ComputePlat, row.Sensors)
	}
	return b.String()
}

func runTable1(Options) (Result, error) {
	return Table1Result{Rows: accel.Table1()}, nil
}

// Table2Result reproduces the platform specification table.
type Table2Result struct {
	Specs []accel.Spec
}

func (r Table2Result) Render() string {
	var b strings.Builder
	b.WriteString(header("table2", "Computing platform specifications"))
	fmt.Fprintf(&b, "%-9s %-36s %9s %8s %10s %10s\n",
		"Platform", "Model", "Freq", "Cores", "Memory", "MemBW")
	for _, s := range r.Specs {
		cores := "-"
		if s.Cores > 0 {
			cores = fmt.Sprintf("%d", s.Cores)
		}
		mem := "-"
		if s.MemGB > 0 {
			mem = fmt.Sprintf("%.4g GB", s.MemGB)
		}
		bw := "-"
		if s.MemBWGBs > 0 {
			bw = fmt.Sprintf("%.1f GB/s", s.MemBWGBs)
		}
		fmt.Fprintf(&b, "%-9s %-36s %6.2f GHz %8s %10s %10s\n",
			s.Platform, s.Model, s.FreqGHz, cores, mem, bw)
	}
	return b.String()
}

func runTable2(Options) (Result, error) {
	return Table2Result{Specs: accel.Table2()}, nil
}

// Table3Result reproduces the FE ASIC specification.
type Table3Result struct {
	Spec accel.FEASICSpec
}

func (r Table3Result) Render() string {
	var b strings.Builder
	b.WriteString(header("table3", "Feature Extraction (FE) ASIC specifications"))
	fmt.Fprintf(&b, "Technology  %s\n", r.Spec.Technology)
	fmt.Fprintf(&b, "Area        %.1f um^2\n", r.Spec.AreaUm2)
	fmt.Fprintf(&b, "Clock Rate  %.1f GHz (%.2f ns/cycle)\n", r.Spec.ClockGHz, 1/r.Spec.ClockGHz)
	fmt.Fprintf(&b, "Power       %.2f mW\n", r.Spec.PowerMilliW)
	return b.String()
}

func runTable3(Options) (Result, error) {
	return Table3Result{Spec: accel.Table3()}, nil
}
