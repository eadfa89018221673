package experiment

import (
	"slices"

	"adsim/internal/accel"
	"adsim/internal/pipeline"
)

// runSeeds is an extension experiment: every reported number in this
// reproduction is deterministic for a given seed, so this driver re-runs
// the headline configurations across several seeds and reports the spread
// ((max-min)/min of the end-to-end P99.99) — the reproduction's own error
// bars. Tails driven by fixed-latency designs or constant relocalization
// costs have near-zero spread; jitter-driven tails vary by a few percent.
// Each row keeps its per-seed tails in a hidden column.
func runSeeds(opts Options) (*Table, error) {
	seeds := []int64{opts.Seed, opts.Seed + 101, opts.Seed + 202, opts.Seed + 303, opts.Seed + 404}
	s := Section{Title: "\n", Cols: []Col{
		{"DET/TRA/LOC", "%-18s", "%-18s"}, {"min tail ms", " %12s", " %12.1f"},
		{"max tail ms", " %12s", " %12.1f"}, {"spread", " %10s", " %9.2f%%"}, {Name: "tails"},
	}}
	for _, a := range []pipeline.Assignment{
		pipeline.Uniform(accel.CPU),
		pipeline.Uniform(accel.GPU),
		pipeline.Uniform(accel.ASIC),
		{Det: accel.GPU, Tra: accel.ASIC, Loc: accel.ASIC},
	} {
		var tails []float64
		for _, seed := range seeds {
			tails = append(tails, simulate(pipeline.SimConfig{Assignment: a, Frames: opts.Frames, Seed: seed}).E2E.P9999())
		}
		lo, hi := slices.Min(tails), slices.Max(tails)
		s.Rows = append(s.Rows, []any{a.Short(), lo, hi, 100 * (hi - lo) / lo, tails})
	}
	return &Table{
		Sections: []Section{{Cols: []Col{{Name: "seeds", Verb: "seeds: %v"}}, Rows: [][]any{{seeds}}}, s},
		Note: `
Every figure in this reproduction is deterministic per seed; the
spread above bounds the sampling sensitivity of the conclusions.
`,
	}, nil
}
