// Package experiment contains one driver per table and figure of the
// paper's evaluation. Each driver runs the corresponding workload against
// the reproduction's models or native engines and renders the same rows or
// series the paper reports, so `adbench -experiment <id>` regenerates any
// single result and `-experiment all` regenerates the full evaluation.
//
// EXPERIMENTS.md records paper-vs-measured values for every driver.
package experiment

import (
	"fmt"
	"sort"
	"strings"

	"adsim/internal/accel"
	"adsim/internal/pipeline"
)

// Options tune experiment execution.
type Options struct {
	// Frames is the number of simulated frames per configuration.
	Frames int
	// Seed drives all stochastic elements.
	Seed int64
	// NativeFrames is the number of natively-executed frames for the
	// instrumentation experiments (Fig 7).
	NativeFrames int
}

// DefaultOptions returns the standard experiment sizing: enough frames to
// resolve the 99.99th percentile with headroom.
func DefaultOptions() Options {
	return Options{Frames: 40000, Seed: 1, NativeFrames: 12}
}

func (o *Options) normalize() {
	if o.Frames <= 0 {
		o.Frames = 40000
	}
	if o.NativeFrames <= 0 {
		o.NativeFrames = 12
	}
}

// Result is a runnable experiment's rendered output. Its identifier is the
// registry key it was run under.
type Result interface {
	// Render returns the human-readable reproduction of the table/figure.
	Render() string
}

// Runner executes one experiment.
type Runner func(Options) (Result, error)

// registry maps experiment IDs to runners, populated by each driver file.
var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs lists all registered experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given ID.
func Run(id string, opts Options) (Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	opts.normalize()
	return r(opts)
}

// figureConfigs is the platform-assignment set plotted in Figures 11–13:
// DET and TRA share a platform (they are the paper's paired DNN engines)
// crossed with every LOC platform, plus the best mixed configuration the
// paper highlights (DET on GPU, TRA and LOC on ASIC → 16.1 ms tail).
func figureConfigs() []pipeline.Assignment {
	var out []pipeline.Assignment
	for _, dnnP := range accel.Platforms() {
		for _, locP := range accel.Platforms() {
			out = append(out, pipeline.Assignment{Det: dnnP, Tra: dnnP, Loc: locP})
		}
	}
	out = append(out, pipeline.Assignment{Det: accel.GPU, Tra: accel.ASIC, Loc: accel.ASIC})
	return out
}

// header renders an experiment banner.
func header(id, title string) string {
	line := strings.Repeat("=", 72)
	return fmt.Sprintf("%s\n%s — %s\n%s\n", line, strings.ToUpper(id), title, line)
}
