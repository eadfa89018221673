package experiment

import (
	"fmt"
	"strings"

	"adsim/internal/accel"
	"adsim/internal/constraint"
	"adsim/internal/pipeline"
	"adsim/internal/stats"
)

func init() { register("ablate-objects", runAblateObjects) }

// AblateObjectsRow is one (configuration, tracked-object count) tail.
type AblateObjectsRow struct {
	Assignment pipeline.Assignment
	Objects    int
	TailMs     float64
	MeetsTail  bool
}

// AblateObjectsResult is an extension experiment: the paper reports TRA
// latency per GOTURN inference, but a frame runs one inference per tracked
// object (its own system caps the tracker pool at the paper's unstated
// size). Scaling the per-frame TRA cost by the tracked-object count shows
// which platform assignments survive realistic traffic density: GPU-only
// TRA blows the 100 ms budget somewhere around a dozen objects, while the
// EIE-style FC ASIC (1.8 ms per inference) sustains dense scenes — a
// sizing insight implicit in the paper's accelerator choice.
type AblateObjectsResult struct {
	Rows []AblateObjectsRow
}

func (r AblateObjectsResult) Render() string {
	var b strings.Builder
	b.WriteString(header("ablate-objects", "End-to-end tail vs. tracked-object count (extension)"))
	fmt.Fprintf(&b, "%-18s %8s %12s %10s\n", "DET/TRA/LOC", "objects", "P99.99 ms", "<=100ms")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %8d %12.1f %10v\n",
			row.Assignment.Short(), row.Objects, row.TailMs, row.MeetsTail)
	}
	b.WriteString("\nTRA runs one GOTURN inference per tracked object per frame; DET and\n")
	b.WriteString("LOC are per-frame. Dense traffic pushes GPU-tracked configurations\n")
	b.WriteString("over the 100 ms deadline; the FC ASIC holds it across the sweep.\n")
	return b.String()
}

// MaxObjectsUnderDeadline returns the largest object count in the sweep
// where the assignment still meets the tail constraint (0 if none).
func (r AblateObjectsResult) MaxObjectsUnderDeadline(a pipeline.Assignment) int {
	best := 0
	for _, row := range r.Rows {
		if row.Assignment == a && row.MeetsTail && row.Objects > best {
			best = row.Objects
		}
	}
	return best
}

func runAblateObjects(opts Options) (Result, error) {
	m := accel.NewModel()
	configs := []pipeline.Assignment{
		{Det: accel.GPU, Tra: accel.GPU, Loc: accel.ASIC},
		{Det: accel.GPU, Tra: accel.ASIC, Loc: accel.ASIC},
		pipeline.Uniform(accel.ASIC),
	}
	counts := []int{1, 4, 8, 16, 32}
	var rows []AblateObjectsRow
	for ci, a := range configs {
		for _, objects := range counts {
			rng := stats.NewRNG(opts.Seed + int64(ci))
			d := stats.NewDistribution(opts.Frames)
			for f := 0; f < opts.Frames; f++ {
				var z [accel.NumPlatforms]float64
				for p := range z {
					z[p] = rng.Normal(0, 1)
				}
				det := m.SampleShared(a.Det, accel.DET, accel.ResKITTI, z[a.Det], rng)
				loc := m.SampleShared(a.Loc, accel.LOC, accel.ResKITTI, z[a.Loc], rng)
				tra := 0.0
				for o := 0; o < objects; o++ {
					tra += m.SampleShared(a.Tra, accel.TRA, accel.ResKITTI, z[a.Tra], rng)
				}
				e2e := det + tra
				if loc > e2e {
					e2e = loc
				}
				d.Add(e2e + m.SampleFusion(rng) + m.SampleMotPlan(rng))
			}
			tail := d.P9999()
			rows = append(rows, AblateObjectsRow{
				Assignment: a,
				Objects:    objects,
				TailMs:     tail,
				MeetsTail:  tail <= constraint.MaxTailLatencyMs,
			})
		}
	}
	return AblateObjectsResult{Rows: rows}, nil
}
