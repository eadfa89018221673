// Command bench is the repository's benchmark: four closed-loop workloads,
// seven end-to-end metrics per workload estimated as medians over fresh
// repetitions, an output check against a sequential Pipeline.Step
// reference, and a traced pass that yields per-layer metrics from outside
// the program. See README.md for every name, unit and bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// traceMode selects which passes a workload process makes.
type traceMode int

const (
	traceBoth traceMode = iota // end-to-end pass, then traced pass (flag unset)
	traceOff                   // -trace=0: end-to-end metrics only; no sink is ever built
	traceOnly                  // -trace=1: per-layer metrics only
)

// Set implements flag.Value. It is deliberately not a boolean flag, so the
// driver's "--trace 0" (value as a separate argument) parses.
func (m *traceMode) Set(v string) error {
	switch v {
	case "0", "false":
		*m = traceOff
	case "1", "true":
		*m = traceOnly
	default:
		return fmt.Errorf("want 0 or 1")
	}
	return nil
}

func (m *traceMode) String() string { return [...]string{"both", "0", "1"}[*m] }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    traceMode
	aa       bool
	quick    bool
	isolate  bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all four, one child process each)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: feeds Scene.Seed and the fault seed")
	fs.Float64Var(&o.seconds, "seconds", 0, "time budget per pass in seconds; repetitions are added while a whole one still fits (0: the workload's own K)")
	fs.Var(&o.trace, "trace", "0: end-to-end pass only; 1: traced per-layer pass only (default: both)")
	fs.BoolVar(&o.aa, "aa", false, "run the end-to-end pass twice, sides interleaved per workload, and compare them against the bounds")
	fs.BoolVar(&o.quick, "quick", false, "smoke run: K 1, N 30, no isolation pass; the numbers are not estimates")
	fs.BoolVar(&o.isolate, "isolate", true, "include the in-isolation layer metrics in the traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if err := pinCPUs(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var err error
	switch {
	case o.aa:
		err = runAA(o, stdout, stderr)
	case o.workload == "":
		err = runAll(o, stdout, stderr)
	default:
		err = runOne(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// e2eValue is one end-to-end metric of one workload as reported.
type e2eValue struct {
	estimate
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// Spread is (max−min)/median over the repetitions: how far apart this
	// run's scenes and the host put them, to hold next to the bound.
	Spread float64 `json:"spread"`
}

// report is a workload's full result, written to out/<workload>.json.
type report struct {
	Workload string  `json:"workload"`
	Why      string  `json:"why"`
	Host     host    `json:"host"`
	Seed     int64   `json:"seed"`
	K        int     `json:"k"`
	W        int     `json:"w"`
	N        int     `json:"n"`
	Vehicles int     `json:"vehicles"`
	Quick    bool    `json:"quick,omitempty"`
	WallS    float64 `json:"run_wall_s"`

	Correct bool   `json:"correct"`
	Failure string `json:"failure,omitempty"`

	FramesAttempted int `json:"frames_attempted"`
	FramesDelivered int `json:"frames_delivered"`
	FramesFailed    int `json:"frames_failed"`

	EndToEnd map[string]e2eValue   `json:"end_to_end,omitempty"`
	Reps     []repResult           `json:"reps,omitempty"`
	PerLayer map[string]layerValue `json:"per_layer,omitempty"`
	// TraceFile is the span dump of the traced repetition.
	TraceFile string `json:"trace_file,omitempty"`
}

// resultLine is the last line of a workload process's standard output: the
// contract with whatever drives the benchmark.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process.
func runOne(o options, stdout io.Writer) error {
	s, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.quick {
		s = s.quick()
	}
	began := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))

	rep := report{
		Workload: s.Name, Why: s.Why, Host: hostInfo(), Seed: o.seed,
		W: s.W, N: s.N, Vehicles: s.Vehicles, Quick: o.quick, Correct: true,
	}
	line := resultLine{Metrics: map[string]metricValue{}}
	count := func(reps []repResult) {
		for _, r := range reps {
			rep.FramesAttempted += r.Attempted
			rep.FramesDelivered += r.Delivered
			rep.FramesFailed += r.Failed
			if r.Failed > 0 && rep.Correct {
				rep.Correct = false
				rep.Failure = fmt.Sprintf("seed %d: %s", r.Seed, r.FirstFailure)
			}
		}
	}

	if o.trace != traceOnly {
		reps, err := endToEndPass(s, o.seed, budget)
		if err != nil {
			return err
		}
		count(reps)
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		rep.K, rep.Reps = len(reps), reps
		rep.EndToEnd = foldEndToEnd(reps, rss)
		for _, m := range endToEnd {
			line.Metrics[m.Name] = metricValue{rep.EndToEnd[m.Name].Median, m.Unit}
		}
	}
	if o.trace != traceOff {
		layers, reps, file, err := tracedPass(s, o, budget)
		if err != nil {
			return err
		}
		count(reps)
		rep.PerLayer, rep.TraceFile = layers, file
		for _, m := range perLayer {
			line.Metrics[m.Name] = metricValue{layers[m.Name].Value, m.Unit}
		}
	}
	rep.WallS = time.Since(began).Seconds()
	line.Correct, line.Attempted, line.Failed = rep.Correct, rep.FramesAttempted, rep.FramesFailed

	if err := writeJSON(filepath.Join(benchDir(), "out", s.Name+".json"), rep); err != nil {
		return err
	}
	printReport(stdout, rep)
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}

// endToEndPass runs the untraced repetitions: the workload's own K, or —
// under a -seconds budget — as many whole cycles (reference, repetition) as
// end inside it, never fewer than three (one on a quick run).
func endToEndPass(s spec, seed int64, budget time.Duration) ([]repResult, error) {
	began := time.Now()
	floor := min(s.K, 3)
	var reps []repResult
	for {
		cycleBegan := time.Now()
		r, err := measure(s, repSeed(seed, len(reps)), nil)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		if budget <= 0 {
			if len(reps) >= s.K {
				return reps, nil
			}
		} else if len(reps) >= floor && time.Since(began)+time.Since(cycleBegan) > budget {
			return reps, nil
		}
	}
}

// foldEndToEnd turns per-repetition readings into the seven estimates.
func foldEndToEnd(reps []repResult, rssMB float64) map[string]e2eValue {
	column := func(get func(repResult) float64) []float64 {
		out := make([]float64, len(reps))
		for i, r := range reps {
			out[i] = get(r)
		}
		return out
	}
	readings := map[string][]float64{
		// Times are scaled to nominal host speed, repetition by repetition
		// (yardstick.go); counts and shares are as read.
		"frames_per_s":       column(repResult.hostFramesPerS),
		"frame_ms_p50":       column(func(r repResult) float64 { return r.P50Ms / r.TimeScale }),
		"frame_ms_p95":       column(func(r repResult) float64 { return r.P95Ms / r.TimeScale }),
		"setup_s":            column(func(r repResult) float64 { return r.SetupS / r.TimeScale }),
		"deadline_hit_share": column(func(r repResult) float64 { return r.HitShare }),
		"allocs_per_frame":   column(func(r repResult) float64 { return r.AllocsPF }),
		// One high-water mark per process: it belongs to the workload, not
		// to a repetition.
		"peak_rss_mb": {rssMB},
	}
	out := map[string]e2eValue{}
	for _, m := range endToEnd {
		e := estimateOf(readings[m.Name])
		out[m.Name] = e2eValue{estimate: e, Unit: m.Unit, Better: m.Better, Bound: m.Bound, Spread: e.relSpread()}
	}
	return out
}

// tracedPass makes the per-layer pass: untraced and traced repetitions in
// adjacent pairs (their throughput ratio is the tracing overhead), the
// span tree of the last traced repetition, and the isolation pass.
func tracedPass(s spec, o options, budget time.Duration) (map[string]layerValue, []repResult, string, error) {
	pairs := 3
	minDur := 300 * time.Millisecond
	if o.quick {
		pairs = 1
	}
	tr := newTracer()
	var reps []repResult
	var overhead []float64
	var last repResult
	began := time.Now()
	for p := 0; p < pairs; p++ {
		// Both sides of a pair drive the same scene, so the ratio of their
		// throughputs at nominal host speed is the tracer's cost and
		// nothing else; which side goes first alternates, so a host that is
		// speeding up or slowing down does not read as overhead.
		var side [2]repResult // untraced, traced
		pairBegan := time.Now()
		for i := range side {
			which := (i + p) % 2
			var sink *tracer
			if which == 1 {
				sink = tr
			}
			r, err := measure(s, repSeed(o.seed, p), sink)
			if err != nil {
				return nil, nil, "", err
			}
			side[which] = r
		}
		reps = append(reps, side[0], side[1])
		overhead = append(overhead, 1-side[1].hostFramesPerS()/side[0].hostFramesPerS())
		last = side[1]
		// Under a budget, half of it goes to the live pairs.
		if budget > 0 && time.Since(began)+time.Since(pairBegan) > budget/2 {
			break
		}
	}
	tree := tr.finish()
	file := filepath.Join(benchDir(), "out", s.Name+".trace.jsonl")
	if err := tree.write(file); err != nil {
		return nil, nil, "", err
	}
	if last.Delivered != last.Attempted {
		return nil, nil, "", fmt.Errorf("%s: the traced repetition delivered %d of %d timed frames: %s", s.Name, last.Delivered, last.Attempted, last.FirstFailure)
	}
	if err := tree.check(last.Attempted); err != nil {
		return nil, nil, "", fmt.Errorf("%s: %w", s.Name, err)
	}
	layers := inSitu(s, tree, last, median(overhead))

	switch {
	case o.quick:
		isolationSkipped(layers, "quick run: no isolation pass")
	case !o.isolate:
		isolationSkipped(layers, "isolation pass skipped (-isolate=false)")
	default:
		if budget > 0 {
			// The rest of the budget, spread over ~45 ops × 7 loops each.
			minDur = max(budget*45/100/300, 5*time.Millisecond)
		}
		tmp := filepath.Join(benchDir(), "out", fmt.Sprintf("tmp-%d", os.Getpid()))
		iso, err := isolation(repSeed(o.seed, 0), minDur, tmp)
		os.RemoveAll(tmp)
		if err != nil {
			return nil, nil, "", err
		}
		for k, v := range iso {
			layers[k] = v
		}
	}
	for _, m := range perLayer {
		if _, ok := layers[m.Name]; !ok {
			return nil, nil, "", fmt.Errorf("traced pass produced no %s", m.Name)
		}
	}
	return layers, reps, file, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport renders a workload's result for a reader.
func printReport(w io.Writer, r report) {
	h := r.Host
	dirty := ""
	if h.GitDirty {
		dirty = "+dirty"
	}
	fmt.Fprintf(w, "== %s  seed %d  K %d  W %d  N %d  vehicles %d\n", r.Workload, r.Seed, r.K, r.W, r.N, r.Vehicles)
	fmt.Fprintf(w, "   host: %d CPU, GOMAXPROCS %d, %s %s/%s, rev %s%s, run %.1f s\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.GitRev, dirty, r.WallS)
	outputs := "verified"
	if !r.Correct {
		outputs = "WRONG: " + r.Failure
	}
	fmt.Fprintf(w, "   frames attempted %d  delivered %d  failed %d  outputs %s\n",
		r.FramesAttempted, r.FramesDelivered, r.FramesFailed, outputs)
	if r.EndToEnd != nil {
		slow := make([]float64, len(r.Reps))
		for i, rep := range r.Reps {
			slow[i] = rep.TimeScale
		}
		if e := estimateOf(slow); e.Max != 1 || e.Min != 1 {
			fmt.Fprintf(w, "   times are scaled to nominal host speed: slowness %.3f (%.3f .. %.3f over reps; 1 = a yardstick reading takes %v)\n",
				e.Median, e.Min, e.Max, yardstickNominal)
		} else {
			fmt.Fprintf(w, "   times are as the clock read them: a timer sets them, not the host's speed\n")
		}
		fmt.Fprintf(w, "   %-20s %12s %-6s %-7s %6s %8s   %s\n", "end-to-end", "median", "unit", "better", "bound", "spread", "min .. max over reps")
		for _, m := range endToEnd {
			v := r.EndToEnd[m.Name]
			fmt.Fprintf(w, "   %-20s %12.4f %-6s %-7s %5.0f%% %7.2f%%   %.4f .. %.4f\n",
				m.Name, v.Median, v.Unit, v.Better, v.Bound*100, v.Spread*100, v.Min, v.Max)
		}
	}
	if r.PerLayer != nil {
		fmt.Fprintf(w, "   %-36s %14s %s\n", "per-layer", "value", "unit")
		for _, m := range perLayer {
			v := r.PerLayer[m.Name]
			switch {
			case v.NA != "":
				fmt.Fprintf(w, "   %-36s %14s   (%s)\n", m.Name, "n/a", v.NA)
			case v.Note != "":
				fmt.Fprintf(w, "   %-36s %14.4f %s   (%s)\n", m.Name, v.Value, m.Unit, v.Note)
			default:
				fmt.Fprintf(w, "   %-36s %14.4f %s\n", m.Name, v.Value, m.Unit)
			}
		}
		fmt.Fprintf(w, "   trace: %s\n", r.TraceFile)
	}
}

// child re-executes this binary for one workload, so peak_rss_mb and
// setup_s belong to that workload alone, and returns its result line.
func child(o options, workload string, extra []string, stdout, stderr io.Writer) (resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds)}
	if o.quick {
		args = append(args, "-quick")
	}
	args = append(args, extra...)
	cmd := exec.Command(exe, args...)
	var out strings.Builder
	cmd.Stdout = io.MultiWriter(stdout, &out)
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return resultLine{}, fmt.Errorf("workload %s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return resultLine{}, fmt.Errorf("workload %s: parsing result line: %w", workload, err)
	}
	return line, nil
}

// runAll runs every workload, one child process each. The isolation pass
// does not depend on the workload, so only the first child makes it.
func runAll(o options, stdout, stderr io.Writer) error {
	began := time.Now()
	wrong := 0
	for i, s := range workloads {
		extra := []string{fmt.Sprintf("-isolate=%t", o.isolate && i == 0)}
		if o.trace != traceBoth {
			extra = append(extra, "-trace", o.trace.String())
		}
		line, err := child(o, s.Name, extra, stdout, stderr)
		if err != nil {
			return err
		}
		if !line.Correct {
			wrong++
		}
	}
	fmt.Fprintf(stdout, "== all workloads: %.1f s, reports in %s\n", time.Since(began).Seconds(), filepath.Join(benchDir(), "out"))
	if wrong > 0 {
		return fmt.Errorf("%d workload(s) failed their output check", wrong)
	}
	return nil
}

// runAA runs the end-to-end pass twice on the same code with the sides
// interleaved per workload (A₁ B₁ A₂ B₂ …) and holds each metric's A/B
// difference against its bound: the benchmark's own agreement test, and
// the order in which a later parent/change comparison should run its sides
// (host state drifts over minutes; interleaving puts both sides in it).
func runAA(o options, stdout, stderr io.Writer) error {
	over := 0
	var table strings.Builder
	for _, s := range workloads {
		var side [2]resultLine
		for i := range side {
			line, err := child(o, s.Name, []string{"-trace", "0"}, io.Discard, stderr)
			if err != nil {
				return err
			}
			if !line.Correct {
				return fmt.Errorf("workload %s failed its output check", s.Name)
			}
			side[i] = line
			fmt.Fprintf(stdout, "ran %s side %c\n", s.Name, 'A'+i)
		}
		for _, m := range endToEnd {
			a, b := side[0].Metrics[m.Name].Value, side[1].Metrics[m.Name].Value
			diff := math.Abs(worsening(a, b, m.Better))
			verdict := "ok"
			if diff > m.Bound {
				verdict = "EXCEEDS"
				over++
			}
			fmt.Fprintf(&table, "%-16s %-20s %12.4f %12.4f %7.2f%% %6.0f%%  %s\n", s.Name, m.Name, a, b, diff*100, m.Bound*100, verdict)
		}
	}
	fmt.Fprintf(stdout, "%-16s %-20s %12s %12s %8s %7s\n%s", "workload", "metric", "A", "B", "|A-B|/A", "bound", table.String())
	if over > 0 {
		return fmt.Errorf("%d metric(s) differ between two runs of the same code by more than their bound", over)
	}
	return nil
}
