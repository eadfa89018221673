package experiment

import (
	"fmt"
	"strings"

	"adsim/internal/accel"
	"adsim/internal/stats"
)

func init() { register("fig10", runFig10) }

// Fig10Cell is one (platform, engine) measurement.
type Fig10Cell struct {
	Platform             accel.Platform
	Engine               accel.Engine
	Mean, Tail           float64 // ms
	PaperMean, PaperTail float64 // ms
	PowerW               float64
}

// Fig10Result reproduces Figure 10: per-bottleneck mean latency (a),
// 99.99th-percentile latency (b) and power (c) across the four platforms.
type Fig10Result struct {
	Cells []Fig10Cell
}

func (r Fig10Result) Render() string {
	var b strings.Builder
	b.WriteString(header("fig10", "Acceleration results across platforms"))
	for _, part := range []struct {
		title string
		get   func(Fig10Cell) (float64, float64)
		unit  string
	}{
		{"(a) Mean latency", func(c Fig10Cell) (float64, float64) { return c.Mean, c.PaperMean }, "ms"},
		{"(b) 99.99th-percentile latency", func(c Fig10Cell) (float64, float64) { return c.Tail, c.PaperTail }, "ms"},
		{"(c) Power", func(c Fig10Cell) (float64, float64) { return c.PowerW, c.PowerW }, "W"},
	} {
		fmt.Fprintf(&b, "\n%s (%s, measured / paper)\n", part.title, part.unit)
		fmt.Fprintf(&b, "%-6s", "")
		for _, e := range accel.Engines() {
			fmt.Fprintf(&b, " %22s", e.String())
		}
		b.WriteString("\n")
		for _, p := range accel.Platforms() {
			fmt.Fprintf(&b, "%-6s", p.String())
			for _, e := range accel.Engines() {
				cell := r.cell(p, e)
				got, paper := part.get(cell)
				fmt.Fprintf(&b, " %10.1f / %9.1f", got, paper)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

func (r Fig10Result) cell(p accel.Platform, e accel.Engine) Fig10Cell {
	for _, c := range r.Cells {
		if c.Platform == p && c.Engine == e {
			return c
		}
	}
	return Fig10Cell{}
}

func runFig10(opts Options) (Result, error) {
	m := accel.NewModel()
	rng := stats.NewRNG(opts.Seed)
	var cells []Fig10Cell
	for _, p := range accel.Platforms() {
		for _, e := range accel.Engines() {
			d := stats.NewDistribution(opts.Frames)
			for i := 0; i < opts.Frames; i++ {
				d.Add(m.Sample(p, e, accel.ResKITTI, rng))
			}
			cells = append(cells, Fig10Cell{
				Platform:  p,
				Engine:    e,
				Mean:      d.Mean(),
				Tail:      d.P9999(),
				PaperMean: accel.PaperMean(p, e),
				PaperTail: accel.PaperTail(p, e),
				PowerW:    m.Power(p, e),
			})
		}
	}
	return Fig10Result{Cells: cells}, nil
}
