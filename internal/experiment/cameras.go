package experiment

import (
	"adsim/internal/accel"
	"adsim/internal/pipeline"
	"adsim/internal/stats"
)

// runAblateCameras is an extension experiment beyond the paper: the
// end-to-end system has eight cameras, each with a computing-engine
// replica, and a frame is only fully processed when EVERY camera's replica
// finishes — the vehicle-level latency is the max over replicas. On
// platforms with execution jitter (CPU, GPU) the max-statistic inflates
// the tail as cameras are added; fixed-latency FPGA/ASIC pipelines pay no
// such penalty, which further strengthens the paper's case for
// deterministic accelerators in multi-sensor systems. Inflation is the
// tail's increase over the same configuration's single-camera tail.
func runAblateCameras(opts Options) (*Table, error) {
	m := accel.NewModel()
	s := Section{Cols: []Col{
		{"DET/TRA/LOC", "%-18s", "%-18s"}, {"cameras", " %8s", " %8d"},
		{"P99.99 ms", " %12s", " %12.1f"}, {"inflation", " %12s", " %11.1f%%"},
	}}
	// Configurations chosen to expose the effect: the critical path must
	// be jitter-dominated (LOC on ASIC keeps the constant relocalization
	// spike from capping the tail).
	for ci, a := range []pipeline.Assignment{
		{Det: accel.CPU, Tra: accel.CPU, Loc: accel.ASIC},
		{Det: accel.GPU, Tra: accel.GPU, Loc: accel.ASIC},
		pipeline.Uniform(accel.ASIC),
		{Det: accel.GPU, Tra: accel.ASIC, Loc: accel.ASIC},
	} {
		var singleTail float64
		for _, n := range []int{1, 2, 4, 8} {
			rng := stats.NewRNG(opts.Seed + int64(ci))
			d := stats.NewDistribution(opts.Frames)
			replicas := make([][pipeline.NumStages]float64, n)
			for f := 0; f < opts.Frames; f++ {
				// Per-camera replicas are independent engines; within one
				// camera, co-located engines share their platform noise.
				for cam := range replicas {
					var z [accel.NumPlatforms]float64
					for p := range z {
						z[p] = rng.Normal(0, 1)
					}
					r := &replicas[cam]
					r[pipeline.StageDet] = m.SampleShared(a.Det, accel.DET, accel.ResKITTI, z[a.Det], rng)
					r[pipeline.StageTra] = m.SampleShared(a.Tra, accel.TRA, accel.ResKITTI, z[a.Tra], rng)
					r[pipeline.StageLoc] = m.SampleShared(a.Loc, accel.LOC, accel.ResKITTI, z[a.Loc], rng)
				}
				// FUSION and MOTPLAN run once per vehicle. Floating-point
				// addition is monotone, so the max over replicas of each
				// replica's critical path is the slowest replica's critical
				// path.
				fusion, motplan := m.SampleFusion(rng), m.SampleMotPlan(rng)
				vehicle := 0.0
				for _, r := range replicas {
					r[pipeline.StageFusion], r[pipeline.StageMotplan] = fusion, motplan
					vehicle = max(vehicle, pipeline.CriticalPath(r))
				}
				d.Add(vehicle)
			}
			tail := d.P9999()
			if n == 1 {
				singleTail = tail
			}
			s.Rows = append(s.Rows, []any{a.Short(), n, tail, 100 * (tail - singleTail) / singleTail})
		}
	}
	return &Table{Sections: []Section{s}, Note: `
A frame is done when all camera replicas finish (vehicle latency =
max over replicas). Platforms with execution jitter pay a growing
percent-level tail penalty per camera (largest on the CPU, whose
jitter is widest); fixed-latency ASIC pipelines pay none — another
reason deterministic accelerators suit multi-sensor vehicles.
`}, nil
}
