package experiment

import (
	"fmt"

	"adsim/internal/accel"
	"adsim/internal/pipeline"
	"adsim/internal/power"
	"adsim/internal/stats"
)

// runAblateNoise quantifies the noise-correlation design choice: with
// engines co-located on one platform sharing an interference draw, the
// end-to-end tail composes as the sum of component tails (what the paper's
// Fig 11 shows); with independent noise the excursions average out and the
// composed tail shrinks.
func runAblateNoise(opts Options) (*Table, error) {
	tail := func(independent bool) float64 {
		return simulate(pipeline.SimConfig{Assignment: pipeline.Uniform(accel.CPU), Frames: opts.Frames,
			Seed: opts.Seed, IndependentNoise: independent}).E2E.P9999()
	}
	return &Table{
		Sections: []Section{{
			Cols: []Col{
				{Name: "shared", Verb: "CPU end-to-end P99.99, shared per-platform noise:   %8.0f ms\n"},
				{Name: "independent", Verb: "CPU end-to-end P99.99, independent engine noise:    %8.0f ms\n"},
				{Name: "component sum", Verb: "Sum of component tails (paper Fig 10b DET+TRA):     %8.0f ms"},
			},
			Rows: [][]any{{tail(false), tail(true),
				accel.PaperTail(accel.CPU, accel.DET) + accel.PaperTail(accel.CPU, accel.TRA)}},
		}},
		Note: `
Shared interference is what makes the end-to-end tail equal the sum of
component tails, as in the paper's Fig 11; with independent noise the
composed tail under-shoots it.
`,
	}, nil
}

// runAblateReloc shows that LOC's tail — and essentially nothing else —
// is set by relocalization frequency: the mean barely moves while the
// 99.99th percentile jumps to the wide-search cost as soon as spikes occur
// more often than 1 in 10000 frames. This is the paper's predictability
// argument made quantitative.
func runAblateReloc(opts Options) (*Table, error) {
	m := accel.NewModel()
	s := Section{Cols: []Col{
		{"reloc every", "%-18s", "%-18s"}, {"mean ms", " %10s", " %10.1f"}, {"P99.99 ms", " %10s", " %10.1f"},
	}}
	for _, every := range []int{0, 2000, 500, 100} {
		rng := stats.NewRNG(opts.Seed)
		d := stats.NewDistribution(opts.Frames)
		for i := 0; i < opts.Frames; i++ {
			// Deterministic spike cadence isolates frequency from
			// sampling noise.
			if every > 0 && i%every == every-1 {
				d.Add(m.LocRelocLatency(accel.CPU, accel.ResKITTI))
				// Burn the jitter draw to keep streams aligned.
				rng.Normal(0, 1)
				continue
			}
			d.Add(m.LocTrackingLatency(accel.CPU, accel.ResKITTI, rng.Normal(0, 1)))
		}
		label := "never"
		if every > 0 {
			label = fmt.Sprintf("%d frames", every)
		}
		s.Rows = append(s.Rows, []any{label, d.Mean(), d.P9999()})
	}
	return &Table{Sections: []Section{s}, Note: `
The mean is insensitive to relocalization; the tail is set by it —
why the paper evaluates at the 99.99th percentile.
`}, nil
}

// runAblateCooling isolates the paper's thermal-constraint finding: the
// cabin-cooling overhead nearly doubles every configuration's driving-range
// impact.
func runAblateCooling(Options) (*Table, error) {
	m := accel.NewModel()
	s := Section{Cols: []Col{
		{"DET/TRA/LOC", "%-18s", "%-18s"}, {"range-% (full)", " %14s", " %14.1f"},
		{"range-% (no AC)", " %14s", " %14.1f"}, {"x", " %8s", " %8.2f"},
	}}
	for _, p := range accel.Platforms() {
		a := pipeline.Uniform(p)
		computeW := float64(NumCameras) * a.ComputePowerW(m)
		withPct := 100 * power.RangeReduction(power.System(computeW, power.USMapTB).Total())
		noPct := 100 * power.RangeReduction(computeW+power.StoragePower(power.USMapTB))
		s.Rows = append(s.Rows, []any{a.Short(), withPct, noPct, withPct / noPct})
	}
	return &Table{Sections: []Section{s}, Note: `
Removing the cooling model (as a naive power analysis would) understates
the driving-range impact by nearly 2x — the paper's thermal finding.
`}, nil
}
