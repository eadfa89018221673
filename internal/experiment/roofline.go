package experiment

import (
	"fmt"
	"strings"

	"adsim/internal/accel"
	"adsim/internal/dnn"
)

func init() { register("roofline", runRoofline) }

// RooflineResult is an extension experiment: the layer-wise roofline
// classification of the paper's two DNN workloads on every platform,
// explaining *why* the platforms rank as Fig 10 shows (FPGA's thin memory
// interface, GOTURN's memory-bound FC head, Eyeriss's on-chip reuse).
type RooflineResult struct {
	Summaries []accel.NetworkSummary
	// FCLayersMemBound counts GOTURN FC layers that are memory-bound on
	// every general-purpose platform.
	GoturnFCRows []string
}

func (r RooflineResult) Render() string {
	var b strings.Builder
	b.WriteString(header("roofline", "Layer-wise roofline classification (extension)"))
	fmt.Fprintf(&b, "%-14s %-10s %18s\n", "Network", "Platform", "memory-bound MACs")
	for _, s := range r.Summaries {
		fmt.Fprintf(&b, "%-14s %-10v %17.1f%%\n", s.Network, s.Platform, 100*s.MemoryBoundShare())
	}
	b.WriteString("\nGOTURN FC head on the FPGA (the paper's TRA bottleneck):\n")
	for _, row := range r.GoturnFCRows {
		fmt.Fprintf(&b, "  %s\n", row)
	}
	b.WriteString("\nThe FC head's arithmetic intensity is ~0.25 MAC/byte — memory-bound on\n")
	b.WriteString("every platform, catastrophically so on the Stratix V's 6.4 GB/s link;\n")
	b.WriteString("this is why the paper pairs TRA with EIE's compressed-weight FC ASIC.\n")
	return b.String()
}

func runRoofline(Options) (Result, error) {
	yolo := dnn.YOLOv2(416)
	tower := dnn.GOTURNTower(227)
	head := dnn.GOTURNHead(tower.OutShape())

	var res RooflineResult
	for _, n := range []*dnn.Network{yolo, tower, head} {
		for _, p := range accel.Platforms() {
			res.Summaries = append(res.Summaries, accel.Summarize(n, p))
		}
	}
	for _, l := range accel.AnalyzeNetwork(head, accel.FPGA) {
		res.GoturnFCRows = append(res.GoturnFCRows, fmt.Sprintf(
			"%-10s %10.2f MMACs %8.1f MB %8.3f MAC/B  %s-bound",
			l.Name, float64(l.MACs)/1e6, float64(l.Bytes)/1e6, l.Intensity, l.Bound))
	}
	return res, nil
}
