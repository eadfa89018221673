package experiment

import (
	"fmt"

	"adsim/internal/accel"
)

// runTable1 reproduces the paper's industry survey.
func runTable1(Options) (*Table, error) {
	s := Section{Cols: []Col{
		{"Manufacturer", "%-14s", "%-14s"}, {"Automation", " %-12s", " %-12s"},
		{"Platform", " %-14s", " %-14s"}, {"Sensors", " %s", " %s"},
	}}
	for _, row := range accel.Table1() {
		s.Rows = append(s.Rows, []any{row.Manufacturer, row.Automation, row.ComputePlat, row.Sensors})
	}
	return &Table{Sections: []Section{s}}, nil
}

// runTable2 reproduces the platform specification table.
func runTable2(Options) (*Table, error) {
	s := Section{Cols: []Col{
		{"Platform", "%-9s", "%-9s"}, {"Model", " %-36s", " %-36s"}, {"Freq", " %9s", " %6.2f GHz"},
		{"Cores", " %8s", " %8s"}, {"Memory", " %10s", " %10s"}, {"MemBW", " %10s", " %10s"},
	}}
	for _, spec := range accel.Table2() {
		cores, mem, bw := "-", "-", "-"
		if spec.Cores > 0 {
			cores = fmt.Sprintf("%d", spec.Cores)
		}
		if spec.MemGB > 0 {
			mem = fmt.Sprintf("%.4g GB", spec.MemGB)
		}
		if spec.MemBWGBs > 0 {
			bw = fmt.Sprintf("%.1f GB/s", spec.MemBWGBs)
		}
		s.Rows = append(s.Rows, []any{spec.Platform, spec.Model, spec.FreqGHz, cores, mem, bw})
	}
	return &Table{Sections: []Section{s}}, nil
}

// runTable3 reproduces the FE ASIC specification, as one record.
func runTable3(Options) (*Table, error) {
	spec := accel.Table3()
	return &Table{Sections: []Section{{
		Cols: []Col{
			{Name: "Technology", Verb: "Technology  %s\n"},
			{Name: "Area", Verb: "Area        %.1f um^2\n"},
			{Name: "Clock", Verb: "Clock Rate  %.1f GHz"},
			{Name: "Cycle", Verb: " (%.2f ns/cycle)\n"},
			{Name: "Power", Verb: "Power       %.2f mW"},
		},
		Rows: [][]any{{spec.Technology, spec.AreaUm2, spec.ClockGHz, 1 / spec.ClockGHz, spec.PowerMilliW}},
	}}}, nil
}
