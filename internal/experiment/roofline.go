package experiment

import (
	"adsim/internal/accel"
	"adsim/internal/dnn"
)

// runRoofline is an extension experiment: the layer-wise roofline
// classification of the paper's two DNN workloads on every platform,
// explaining *why* the platforms rank as Fig 10 shows (FPGA's thin memory
// interface, GOTURN's memory-bound FC head, Eyeriss's on-chip reuse). The
// first section gives each network's memory-bound share of MACs per
// platform; the second, the GOTURN FC head's layers on the FPGA.
func runRoofline(Options) (*Table, error) {
	yolo := dnn.YOLOv2(416)
	tower := dnn.GOTURNTower(227)
	head := dnn.GOTURNHead(tower.OutShape())

	nets := Section{Cols: []Col{
		{"Network", "%-14s", "%-14s"}, {"Platform", " %-10s", " %-10v"}, {"memory-bound MACs", " %18s", " %17.1f%%"},
	}}
	for _, n := range []*dnn.Network{yolo, tower, head} {
		for _, p := range accel.Platforms() {
			s := accel.Summarize(n, p)
			nets.Rows = append(nets.Rows, []any{s.Network, s.Platform, percent(s.MemoryBoundShare())})
		}
	}
	fc := Section{
		Title: "\nGOTURN FC head on the FPGA (the paper's TRA bottleneck):\n",
		Cols: []Col{
			{Name: "layer", Verb: "  %-10s"}, {Name: "MMACs", Verb: " %10.2f MMACs"}, {Name: "MB", Verb: " %8.1f MB"},
			{Name: "MAC/B", Verb: " %8.3f MAC/B"}, {Name: "bound", Verb: "  %s-bound"},
		},
	}
	for _, l := range accel.AnalyzeNetwork(head, accel.FPGA) {
		fc.Rows = append(fc.Rows, []any{l.Name, float64(l.MACs) / 1e6, float64(l.Bytes) / 1e6, l.Intensity, l.Bound})
	}
	return &Table{Sections: []Section{nets, fc}, Note: `
The FC head's arithmetic intensity is ~0.25 MAC/byte — memory-bound on
every platform, catastrophically so on the Stratix V's 6.4 GB/s link;
this is why the paper pairs TRA with EIE's compressed-weight FC ASIC.
`}, nil
}
