package experiment

import (
	"adsim/internal/accel"
	"adsim/internal/stats"
)

// runFig10 reproduces Figure 10: per-bottleneck mean latency (a),
// 99.99th-percentile latency (b) and power (c) across the four platforms,
// one section each, with a row per platform and a measured and a paper
// column per engine.
func runFig10(opts Options) (*Table, error) {
	m := accel.NewModel()
	rng := stats.NewRNG(opts.Seed)
	t := &Table{}
	for _, title := range []string{
		"\n(a) Mean latency (ms, measured / paper)\n",
		"\n(b) 99.99th-percentile latency (ms, measured / paper)\n",
		"\n(c) Power (W, measured / paper)\n",
	} {
		s := Section{Title: title, Cols: []Col{{"", "%-6s", "%-6s"}}}
		for _, e := range accel.Engines() {
			s.Cols = append(s.Cols, Col{e.String(), " %22s", " %10.1f"}, Col{e.String() + " paper", "", " / %9.1f"})
		}
		t.Sections = append(t.Sections, s)
	}
	for _, p := range accel.Platforms() {
		rows := [][]any{{p.String()}, {p.String()}, {p.String()}}
		for _, e := range accel.Engines() {
			d := stats.NewDistribution(opts.Frames)
			for i := 0; i < opts.Frames; i++ {
				d.Add(m.Sample(p, e, accel.ResKITTI, rng))
			}
			rows[0] = append(rows[0], d.Mean(), accel.PaperMean(p, e))
			rows[1] = append(rows[1], d.P9999(), accel.PaperTail(p, e))
			rows[2] = append(rows[2], m.Power(p, e), m.Power(p, e))
		}
		for i := range rows {
			t.Sections[i].Rows = append(t.Sections[i].Rows, rows[i])
		}
	}
	return t, nil
}
