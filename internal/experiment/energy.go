package experiment

import "adsim/internal/accel"

// runEnergy is an extension experiment: energy per processed frame (board
// power × mean frame latency), the metric that reveals a subtlety the
// paper's separate latency and power figures imply but never plot — the
// 200 MHz Eyeriss-style DET ASIC is so much slower than the GPU that its
// 7x power advantage does NOT translate into an energy win on DET, while
// the TRA and LOC ASICs win energy by one to three orders of magnitude.
// Rows are platforms, columns engines, cells joules.
func runEnergy(Options) (*Table, error) {
	m := accel.NewModel()
	s := Section{Cols: []Col{{"", "%-9s", "%-9s"}}}
	for _, e := range accel.Engines() {
		s.Cols = append(s.Cols, Col{e.String(), " %14s", " %11.4f J"})
	}
	for _, p := range accel.Platforms() {
		row := []any{p.String()}
		for _, e := range accel.Engines() {
			row = append(row, m.Power(p, e)*m.MeanLatency(p, e, accel.ResKITTI)/1000)
		}
		s.Rows = append(s.Rows, row)
	}
	return &Table{Sections: []Section{s}, Note: `
DET: the GPU narrowly beats the 200 MHz CNN ASIC on energy (speed wins);
TRA/LOC: the FC and FE ASICs win energy by 1-3 orders of magnitude.
CPUs lose on every axis at once.
`}, nil
}
