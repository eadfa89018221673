package constraint

import (
	"fmt"
	"sort"
	"strings"

	"adsim/internal/stats"
)

// Scorecard is the per-scenario constraint record: where Monitor answers a
// rolling live verdict and Check judges a platform, a Scorecard folds one
// whole scenario run — every delivered frame's wall latency plus the
// per-stage latencies behind it — and reports which constraint the
// scenario breaks and in which stage. Replaying the same program and seed
// folds the identical samples, so a scenario's scorecard is as
// reproducible as its frame stream.
//
// Not safe for concurrent use; fold from the delivery loop.
type Scorecard struct {
	scenarioName string
	seed         int64
	fps          float64 // configured source rate

	wall     *stats.Distribution
	stages   map[string]*stats.Distribution
	frames   int
	errs     int
	degraded int
	hard     int
}

// NewScorecard starts an empty scorecard for one (scenario, seed) run.
// fps is the configured source frame rate the run was driven at.
func NewScorecard(scenarioName string, seed int64, fps float64) *Scorecard {
	return &Scorecard{
		scenarioName: scenarioName,
		seed:         seed,
		fps:          fps,
		wall:         stats.NewDistribution(1024),
		stages:       map[string]*stats.Distribution{},
	}
}

// Observe folds one delivered frame: its end-to-end wall latency (ms), the
// per-stage latencies behind it (ms, keyed by canonical stage name), and
// whether any stage delivered a degraded fallback.
func (s *Scorecard) Observe(wallMs float64, stageMs map[string]float64, degraded bool) {
	s.frames++
	s.wall.Add(wallMs)
	if wallMs > MaxTailLatencyMs {
		s.hard++
	}
	if degraded {
		s.degraded++
	}
	for name, ms := range stageMs {
		d, ok := s.stages[name]
		if !ok {
			d = stats.NewDistribution(1024)
			s.stages[name] = d
		}
		d.Add(ms)
	}
}

// ObserveError records a frame that failed outright (an injected hard
// fault or a stage error) and so delivered no latency sample.
func (s *Scorecard) ObserveError() { s.errs++ }

// StageTail is one stage's latency summary in a scorecard report.
type StageTail struct {
	Stage  string
	MeanMs float64
	TailMs float64 // at TailQuantile
}

// ScorecardReport is the per-scenario verdict: the shared Performance and
// Predictability rules applied to the run's whole distribution, plus the
// per-stage tails that say where the time went.
type ScorecardReport struct {
	Scenario string
	Seed     int64

	Performance    Verdict
	Predictability Verdict

	TailMs float64
	MeanMs float64
	FPS    float64
	Frames int
	Errors int
	// HardMisses counts frames over MaxTailLatencyMs outright; Degraded
	// counts frames delivered through a deadline fallback.
	HardMisses int
	Degraded   int

	// Stages summarizes each stage's latency, in name order; Dominant is
	// the stage with the largest tail — the scenario's bottleneck.
	Stages   []StageTail
	Dominant string
}

// Pass reports whether the scenario met both live constraint classes with
// no outright frame errors.
func (r ScorecardReport) Pass() bool {
	return r.Performance.Passed && r.Predictability.Passed && r.Errors == 0
}

// Report computes the scorecard's verdict. The frame rate is judged from
// the configured source rate when every frame was delivered on time; each
// hard miss or errored frame discounts it, so a scenario that starves the
// source cannot pass the rate bar on configuration alone.
func (r *Scorecard) Report() ScorecardReport {
	rep := ScorecardReport{
		Scenario:   r.scenarioName,
		Seed:       r.seed,
		TailMs:     r.wall.Quantile(TailQuantile),
		MeanMs:     r.wall.Mean(),
		Frames:     r.frames,
		Errors:     r.errs,
		HardMisses: r.hard,
		Degraded:   r.degraded,
	}
	if total := r.frames + r.errs; total > 0 {
		rep.FPS = r.fps * float64(r.frames-r.hard) / float64(total)
	}
	rep.Performance = performanceVerdict(rep.TailMs, rep.FPS, r.frames)
	rep.Predictability = predictabilityVerdict(rep.TailMs, rep.MeanMs, r.frames)
	names := make([]string, 0, len(r.stages))
	for name := range r.stages {
		names = append(names, name)
	}
	sort.Strings(names) // map order is random; replayed reports must be identical
	for _, name := range names {
		d := r.stages[name]
		rep.Stages = append(rep.Stages, StageTail{
			Stage:  name,
			MeanMs: d.Mean(),
			TailMs: d.Quantile(TailQuantile),
		})
	}
	sorted := append([]StageTail(nil), rep.Stages...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TailMs > sorted[j].TailMs })
	if len(sorted) > 0 {
		rep.Dominant = sorted[0].Stage
	}
	return rep
}

func (r ScorecardReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %-16s seed %-4d ", r.Scenario, r.Seed)
	mark := "PASS"
	if !r.Pass() {
		mark = "FAIL"
	}
	fmt.Fprintf(&b, "%s  tail %.1f ms, mean %.1f ms, %.1f fps over %d frames",
		mark, r.TailMs, r.MeanMs, r.FPS, r.Frames)
	if r.HardMisses > 0 {
		fmt.Fprintf(&b, ", %d hard misses", r.HardMisses)
	}
	if r.Degraded > 0 {
		fmt.Fprintf(&b, ", %d degraded", r.Degraded)
	}
	if r.Errors > 0 {
		fmt.Fprintf(&b, ", %d errors", r.Errors)
	}
	if r.Dominant != "" {
		fmt.Fprintf(&b, "; dominant stage %s", r.Dominant)
	}
	b.WriteString("\n")
	for _, v := range []Verdict{r.Performance, r.Predictability} {
		m := "PASS"
		if !v.Passed {
			m = "FAIL"
		}
		fmt.Fprintf(&b, "  %-14s %s  %s\n", v.Class, m, v.Detail)
	}
	for _, st := range r.Stages {
		fmt.Fprintf(&b, "  stage %-8s mean %6.2f ms  tail %6.2f ms\n", st.Stage, st.MeanMs, st.TailMs)
	}
	return b.String()
}
