// Package experiment contains one driver per table and figure of the
// paper's evaluation. Each driver runs the corresponding workload against
// the reproduction's models or native engines and returns the same rows or
// series the paper reports, so `adbench -experiment <id>` regenerates any
// single result and `-experiment all` regenerates the full evaluation.
//
// The registry, experiments, is one table of (id, title, run function).
// Every experiment returns a *Table, which one function renders.
//
// EXPERIMENTS.md records paper-vs-measured values for every driver.
package experiment

import (
	"fmt"
	"strings"

	"adsim/internal/accel"
	"adsim/internal/constraint"
	"adsim/internal/faultinject"
	"adsim/internal/pipeline"
	"adsim/internal/scene"
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
	def := DefaultOptions()
	if o.Frames <= 0 {
		o.Frames = def.Frames
	}
	if o.NativeFrames <= 0 {
		o.NativeFrames = def.NativeFrames
	}
}

// experiments is the registry, in IDs order.
var experiments = []struct {
	id, title string
	run       func(Options) (*Table, error)
}{
	{"ablate-cameras", "Vehicle-level tail vs. camera count (extension)", runAblateCameras},
	{"ablate-cooling", "Ablation: thermal (cooling) magnification of range impact", runAblateCooling},
	{"ablate-noise", "Ablation: co-located interference correlation", runAblateNoise},
	{"ablate-objects", "End-to-end tail vs. tracked-object count (extension)", runAblateObjects},
	{"ablate-reloc", "Ablation: relocalization frequency vs LOC latency (CPU)", runAblateReloc},
	{"accuracy", "Detection quality vs. camera resolution (extension)", runAccuracy},
	{"energy", "Energy per frame = power x latency (extension)", runEnergy},
	{"fig10", "Acceleration results across platforms", runFig10},
	{"fig11", "End-to-end latency across configurations (ms)", runFig11},
	{"fig12", "End-to-end power and driving-range reduction", runFig12},
	{"fig13", "End-to-end tail latency vs. camera resolution (ms)", runFig13},
	{"fig2", "Driving range reduction vs. added power (Chevy Bolt)", runFig2},
	{"fig6", "Per-component latency on multicore CPUs (ms)", runFig6},
	{"fig7", "Cycle breakdown of DET, TRA, LOC (hot kernel share)", runFig7},
	{"headline", "Tail-latency reduction vs. CPU baseline", runHeadline},
	{"platform-analysis", "Implied efficiency vs. Table 2 peaks (extension)", runPlatformAnalysis},
	{"roofline", "Layer-wise roofline classification (extension)", runRoofline},
	{"scenarios", "Scenario-program library sweep, one constraint verdict per program", runScenarios},
	{"seeds", "Seed robustness of the key results (extension)", runSeeds},
	{"storage", "Prior-map storage extrapolation (extension)", runStorage},
	{"table1", "Autonomous driving vehicles under experimentation in industry", runTable1},
	{"table2", "Computing platform specifications", runTable2},
	{"table3", "Feature Extraction (FE) ASIC specifications", runTable3},
	{"tail", "Closed-loop tail-latency scheduling, static window vs adaptive", runTail},
}

// IDs lists all registered experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.id
	}
	return out
}

// Run executes the experiment with the given ID.
func Run(id string, opts Options) (*Table, error) {
	for _, e := range experiments {
		if e.id != id {
			continue
		}
		opts.normalize()
		res, err := e.run(opts)
		if err != nil {
			return nil, err
		}
		line := strings.Repeat("=", 72)
		res.banner = fmt.Sprintf("%s\n%s — %s\n%s\n", line, strings.ToUpper(e.id), e.title, line)
		return res, nil
	}
	return nil, fmt.Errorf("experiment: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
}

// Table is an experiment's result: sections of rows under column headings,
// then a closing note. Cells keep their types (float64, int, bool, string,
// …), so tests read numbers, not text.
type Table struct {
	// banner is the "ID — title" heading Render prints first. Run sets it
	// from the registry, so no experiment restates its own title.
	banner   string
	Sections []Section
	Note     string
}

// Section is one block of a Table. Title, when set, is written verbatim
// above it. A section whose columns have no Head prints no heading line;
// with one row it is a record of labelled values.
type Section struct {
	Title string
	Cols  []Col
	Rows  [][]any
}

// Col is one column. Head is the verb that prints Name in the heading line
// ("" adds nothing to it), and Verb the one that prints each row's cell
// ("" hides the cell: a value tests read that the printed table omits).
// Both carry their own separators.
type Col struct {
	Name, Head, Verb string
}

// Render returns the human-readable reproduction of the table or figure.
func (t *Table) Render() string {
	var b strings.Builder
	b.WriteString(t.banner)
	for _, s := range t.Sections {
		b.WriteString(s.Title)
		headed := false
		for _, c := range s.Cols {
			if c.Head != "" {
				fmt.Fprintf(&b, c.Head, c.Name)
				headed = true
			}
		}
		if headed {
			b.WriteByte('\n')
		}
		for _, row := range s.Rows {
			for i, c := range s.Cols {
				if c.Verb != "" {
					fmt.Fprintf(&b, c.Verb, row[i])
				}
			}
			b.WriteByte('\n')
		}
	}
	b.WriteString(t.Note)
	return b.String()
}

// percent is a share cell printed as a percentage: its verb formats 100×
// the share, which the cell itself keeps.
type percent float64

func (p percent) Format(f fmt.State, verb rune) {
	fmt.Fprintf(f, fmt.FormatString(f, verb), 100*float64(p))
}

// passFail is a verdict cell printed PASS or FAIL.
type passFail bool

func (p passFail) Format(f fmt.State, verb rune) {
	s := "FAIL"
	if p {
		s = "PASS"
	}
	fmt.Fprintf(f, fmt.FormatString(f, verb), s)
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

// simulate runs the analytical pipeline model for one configuration:
// cfg's assignment, resolution (zero: KITTI) and seed. Simulate fails only
// on a non-positive frame count, which Run's normalize rules out, so an
// error here is a bug in this package.
func simulate(cfg pipeline.SimConfig) pipeline.SimResult {
	sim, err := pipeline.Simulate(accel.NewModel(), cfg)
	if err != nil {
		panic(err)
	}
	return sim
}

// studyConfig is the native pipeline both fault studies (tail, scenarios)
// drive: urban at 384×192 over a 20-frame survey, functional perception,
// virtual deadline enforcement, sc's faults injected, and mon on the sink,
// so every verdict reads the frame clock (DESIGN.md §8).
func studyConfig(sc faultinject.Scenario, mon *constraint.Monitor) (pipeline.Config, error) {
	cfg := pipeline.DefaultConfig(scene.Urban)
	cfg.Scene.Width, cfg.Scene.Height = 384, 192
	cfg.Scene.Seed = sc.Seed
	cfg.SurveyFrames = 20
	cfg.Detect.RunDNN = false
	cfg.Track.RunDNN = false
	cfg.Deadline = pipeline.DeadlinePolicy{Enforce: true, Virtual: true}
	cfg.Telemetry = mon
	inj, err := faultinject.New(sc)
	if err != nil {
		return cfg, err
	}
	cfg.Inject = inj.Stage
	return cfg, nil
}
