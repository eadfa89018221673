package experiment

import (
	"math"
	"sort"
	"strings"
	"testing"

	"adsim/internal/accel"
	"adsim/internal/constraint"
	"adsim/internal/pipeline"
	"adsim/internal/testutil"
)

// fastOpts keeps unit-test runtime modest while still resolving tails.
func fastOpts() Options {
	return Options{Frames: 40000, Seed: 1, NativeFrames: 8}
}

// produced holds the latest result each experiment's own test produced in
// this process, so TestAllRendersNonEmpty renders every registered id without
// running any experiment a second time. Tests here run sequentially.
var produced = map[string]*Table{}

// run executes experiment id at the unit-test sizing and records the result.
func run(t *testing.T, id string) *Table {
	t.Helper()
	res, err := Run(id, fastOpts())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	produced[id] = res
	return res
}

// rows returns section s of tab as one map per row from column name to
// cell; where two columns share a name, the first wins.
func rows(t *testing.T, tab *Table, s int) []map[string]any {
	t.Helper()
	if s >= len(tab.Sections) {
		t.Fatalf("table has no section %d", s)
	}
	sec := tab.Sections[s]
	out := make([]map[string]any, len(sec.Rows))
	for i, cells := range sec.Rows {
		out[i] = map[string]any{}
		for j := len(sec.Cols) - 1; j >= 0; j-- {
			out[i][sec.Cols[j].Name] = cells[j]
		}
	}
	return out
}

// num reads a numeric cell: a float64, an int, or a percent cell's share.
func num(cell any) float64 {
	switch v := cell.(type) {
	case percent:
		return float64(v)
	case int:
		return float64(v)
	}
	return cell.(float64)
}

// find returns the row whose cells under the given columns equal want, in
// order.
func find(t *testing.T, rs []map[string]any, cols []string, want ...any) map[string]any {
	t.Helper()
next:
	for _, r := range rs {
		for i, c := range cols {
			if r[c] != want[i] {
				continue next
			}
		}
		return r
	}
	t.Fatalf("no row with %v = %v", cols, want)
	return nil
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablate-cameras", "ablate-cooling", "ablate-noise", "ablate-objects", "ablate-reloc",
		"accuracy", "energy", "fig10", "fig11", "fig12", "fig13", "fig2", "fig6", "fig7",
		"headline", "platform-analysis", "roofline", "scenarios", "seeds", "storage", "table1", "table2", "table3", "tail"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry %v != %v", got, want)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("fig99", fastOpts()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTables(t *testing.T) {
	// Spot-check table contents.
	for id, want := range map[string]string{
		"table1": "Waymo",
		"table2": "Titan X",
		"table3": "21.97 mW", // the FE ASIC power
	} {
		res := run(t, id)
		if !strings.Contains(res.Render(), want) {
			t.Errorf("%s missing %q", id, want)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	f := run(t, "fig2").Sections[0].Rows
	if len(f) != 3 {
		t.Fatalf("fig2 rows = %d", len(f))
	}
	// The two range columns share the heading "Range-%", so this test reads
	// the columns by position: compute range, system power, system range.
	computePct := func(row []any) float64 { return row[2].(float64) }
	systemW := func(row []any) float64 { return row[3].(float64) }
	systemPct := func(row []any) float64 { return row[4].(float64) }
	threeGPU := f[2]
	// Paper: 1 kW compute alone → ~6%; aggregate → ~11.5% ("almost
	// doubled").
	if math.Abs(computePct(threeGPU)-6.25) > 1 {
		t.Errorf("CPU+3GPUs compute range reduction = %.1f%%, want ~6", computePct(threeGPU))
	}
	if math.Abs(systemPct(threeGPU)-11.5) > 1 {
		t.Errorf("CPU+3GPUs system range reduction = %.1f%%, want ~11.5", systemPct(threeGPU))
	}
	for _, row := range f {
		if systemPct(row) < 1.7*computePct(row) {
			t.Errorf("%s: aggregate %.1f%% should nearly double compute-alone %.1f%%",
				row[0], systemPct(row), computePct(row))
		}
	}
	// Ordering: FPGA < GPU < 3GPUs.
	if !(systemW(f[0]) < systemW(f[1]) && systemW(f[1]) < systemW(f[2])) {
		t.Error("fig2 power ordering broken")
	}
}

func TestFig6Shape(t *testing.T) {
	f := rows(t, run(t, "fig6"), 0)
	if len(f) != 5 {
		t.Fatalf("fig6 rows = %d", len(f))
	}
	byName := map[string]map[string]any{}
	for _, row := range f {
		byName[row["Component"].(string)] = row
	}
	// The three bottlenecks each exceed 100 ms on CPU; fusion/motplan are
	// sub-millisecond.
	for _, name := range []string{"DET", "TRA", "LOC"} {
		if num(byName[name]["P99.99"]) < constraint.MaxTailLatencyMs {
			t.Errorf("%s tail %.1f should exceed 100 ms on CPU", name, num(byName[name]["P99.99"]))
		}
	}
	if num(byName["FUSION"]["Mean"]) > 1 || num(byName["MOTPLAN"]["Mean"]) > 2 {
		t.Error("fusion/motplan should be sub-millisecond-scale")
	}
	// Measured values track the paper's calibration points (the table
	// prints them as text; this test reads them from the model).
	for _, e := range accel.Engines() {
		name, row := e.String(), byName[e.String()]
		mean, tail := num(row["Mean"]), num(row["P99.99"])
		paperMean, paperTail := accel.PaperMean(accel.CPU, e), accel.PaperTail(accel.CPU, e)
		if math.Abs(mean-paperMean)/paperMean > 0.08 {
			t.Errorf("%s mean %.1f vs paper %.1f", name, mean, paperMean)
		}
		if math.Abs(tail-paperTail)/paperTail > 0.15 {
			t.Errorf("%s tail %.1f vs paper %.1f", name, tail, paperTail)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	// The structure is asserted from sub-span counts, which no amount of
	// CPU contention can move: every engine attributes its hot kernel on
	// every frame behind its share. The dominance claim itself is a ratio
	// of wall-clock sums, so it is judged over several runs in this process
	// with the tolerance the runs themselves measure (their spread) — a
	// neighbour package competing for the CPUs widens both together.
	//
	// Under -race the floor is not judged, only logged: the hot kernels are
	// SSE2 assembly the race detector does not instrument, while the Go
	// code around them is, so there the ratio measures the instrumentation
	// (DET reads about 0.28 and LOC 0.47). The structural assertions hold
	// under -race too, and the floor runs in plain tier-1 and in make
	// flake-gate.
	const runs = 5
	frames := int64(fastOpts().NativeFrames)
	shares := map[string][]float64{}
	for r := 0; r < runs; r++ {
		f := rows(t, run(t, "fig7"), 0)
		if len(f) != 3 {
			t.Fatalf("fig7 rows = %d", len(f))
		}
		for _, row := range f {
			engine, hot, spans, share := row["Engine"], row["hot spans"].(int64), row["spans"].(int64), num(row["measured"])
			if spans == 0 || hot != spans {
				t.Errorf("%s: %s reported on %d of %d frames", engine, row["Kernel"], hot, spans)
			}
			if engine != "TRA" && spans != frames {
				t.Errorf("%s executed on %d of %d frames", engine, spans, frames)
			}
			if share <= 0 || share > 1 {
				t.Errorf("%s %s share = %v, want in (0, 1]", engine, row["Kernel"], share)
			}
			shares[engine.(string)] = append(shares[engine.(string)], share)
		}
	}
	for engine, s := range shares {
		sort.Float64s(s)
		median, spread := s[runs/2], s[runs-1]-s[0]
		t.Logf("%s hot-kernel share: median %.3f, spread %.3f", engine, median, spread)
		if testutil.RaceEnabled {
			continue
		}
		// The reproduced claim: the hot kernel dominates each engine.
		if median+spread < 0.5 {
			t.Errorf("%s hot-kernel share: median %.2f, spread %.2f over %d runs (%.2f); kernel should dominate",
				engine, median, spread, runs, s)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	res := run(t, "fig10")
	// Sections (a) mean and (b) tail: a row per platform, keyed "", with a
	// measured and a paper column per engine.
	means, tails := rows(t, res, 0), rows(t, res, 1)
	if cells := len(means) * (len(means[0]) - 1) / 2; cells != 12 {
		t.Fatalf("fig10 cells = %d", cells)
	}
	mean := func(p accel.Platform, e accel.Engine) float64 {
		return num(find(t, means, []string{""}, p.String())[e.String()])
	}
	for _, p := range accel.Platforms() {
		for _, e := range accel.Engines() {
			name := e.String()
			m, tl := find(t, means, []string{""}, p.String()), find(t, tails, []string{""}, p.String())
			if got, paper := num(m[name]), num(m[name+" paper"]); math.Abs(got-paper)/paper > 0.08 {
				t.Errorf("%v/%v mean %.1f vs paper %.1f", p, e, got, paper)
			}
			if got, paper := num(tl[name]), num(tl[name+" paper"]); math.Abs(got-paper)/paper > 0.15 {
				t.Errorf("%v/%v tail %.1f vs paper %.1f", p, e, got, paper)
			}
		}
	}
	// Finding 1 shape: GPU beats CPU by orders of magnitude on DET/TRA;
	// FPGA DET/TRA still miss the 100 ms constraint.
	if mean(accel.GPU, accel.DET) > mean(accel.CPU, accel.DET)/100 {
		t.Error("GPU DET should be >100x faster than CPU")
	}
	if mean(accel.FPGA, accel.DET) < 100 || mean(accel.FPGA, accel.TRA) < 100 {
		t.Error("FPGA DET/TRA should exceed 100 ms (the paper's DSP-count finding)")
	}
}

func TestFig11Shape(t *testing.T) {
	f := rows(t, run(t, "fig11"), 0)
	if len(f) != 17 {
		t.Fatalf("fig11 rows = %d, want 17", len(f))
	}
	// The paper's observation: some configs pass on mean yet fail on tail
	// (e.g. DET/TRA on GPU with LOC on CPU).
	meanPassTailFail := 0
	for _, row := range f {
		if row["mean<=100"].(bool) && !row["tail<=100"].(bool) {
			meanPassTailFail++
		}
	}
	if meanPassTailFail == 0 {
		t.Error("no mean-pass/tail-fail configurations; predictability finding lost")
	}
	// CPU-only is seconds; the best config is ~16 ms.
	cpuRow := find(t, f, []string{"DET/TRA/LOC"}, pipeline.Uniform(accel.CPU).Short())
	bestRow := find(t, f, []string{"DET/TRA/LOC"}, pipeline.Assignment{Det: accel.GPU, Tra: accel.ASIC, Loc: accel.ASIC}.Short())
	if math.Abs(num(cpuRow["Mean"])-7950) > 300 || math.Abs(num(cpuRow["P99.99"])-9100) > 500 {
		t.Errorf("CPU row = %.0f/%.0f, want ~7950/~9100", num(cpuRow["Mean"]), num(cpuRow["P99.99"]))
	}
	if math.Abs(num(bestRow["P99.99"])-16.1) > 2 {
		t.Errorf("best config tail = %.1f, want ~16.1", num(bestRow["P99.99"]))
	}
	if !bestRow["tail<=100"].(bool) {
		t.Error("best config should meet the tail constraint")
	}
}

func TestFig12Shape(t *testing.T) {
	f := rows(t, run(t, "fig12"), 0)
	rangePct := func(p accel.Platform) float64 {
		return num(find(t, f, []string{"DET/TRA/LOC"}, pipeline.Uniform(p).Short())["Range-%"])
	}
	allGPU, allASIC, allFPGA := rangePct(accel.GPU), rangePct(accel.ASIC), rangePct(accel.FPGA)
	allGPUSystemW := num(find(t, f, []string{"DET/TRA/LOC"}, pipeline.Uniform(accel.GPU).Short())["SystemW"])
	// Paper: GPU-everything cuts range by up to ~12%; ASICs keep it low
	// (~2%); GPUs draw >1 kW end-to-end.
	if allGPU < 10 || allGPU > 16 {
		t.Errorf("all-GPU range reduction = %.1f%%, want 10-16", allGPU)
	}
	if allASIC > 5 {
		t.Errorf("all-ASIC range reduction = %.1f%%, want <5", allASIC)
	}
	if allGPUSystemW < 1000 {
		t.Errorf("all-GPU system power = %.0f W, want >1000", allGPUSystemW)
	}
	if !(allASIC < allFPGA && allFPGA < allGPU) {
		t.Error("range-reduction ordering ASIC < FPGA < GPU broken")
	}
}

func TestFig13Shape(t *testing.T) {
	f := run(t, "fig13").Sections[0]
	// A configuration column, then a tail and a mark column per resolution.
	resolutions := (len(f.Cols) - 1) / 2
	if resolutions != 5 {
		t.Fatalf("fig13 resolutions = %d", resolutions)
	}
	tails := func(row []any) []float64 {
		var out []float64
		for i := 1; i < len(row); i += 2 {
			out = append(out, row[i].(float64))
		}
		return out
	}
	meetsAt := func(resIdx int) bool {
		for _, row := range f.Rows {
			if tails(row)[resIdx] <= constraint.MaxTailLatencyMs {
				return true
			}
		}
		return false
	}
	// Paper: some configurations meet the constraint at FHD; none at QHD.
	fhdIdx, qhdIdx := 3, 4
	if !meetsAt(fhdIdx) {
		t.Error("no configuration meets 100 ms at FHD; paper says some do")
	}
	if meetsAt(qhdIdx) {
		t.Error("a configuration meets 100 ms at QHD; paper says none can")
	}
	// Latency is monotone in resolution for every series.
	for _, row := range f.Rows {
		s := tails(row)
		for i := 1; i < len(s); i++ {
			if s[i] < s[i-1]*0.95 {
				t.Errorf("%s: tail not monotone across resolutions: %v", row[0], s)
			}
		}
	}
}

func TestHeadlineShape(t *testing.T) {
	res := run(t, "headline")
	for _, row := range rows(t, res, 0) {
		reduction, paper := num(row["Reduction"]), num(row["Paper"])
		tol := 0.12 * paper
		if math.Abs(reduction-paper) > tol {
			t.Errorf("%v reduction = %.1fx, paper %.0fx", row["Platform"], reduction, paper)
		}
	}
	if best := num(rows(t, res, 1)[0]["best mixed"]); math.Abs(best-16.1) > 2 {
		t.Errorf("best mixed tail = %.1f, want ~16.1", best)
	}
}

func TestAblateNoiseShape(t *testing.T) {
	a := rows(t, run(t, "ablate-noise"), 0)[0]
	shared, independent, sum := num(a["shared"]), num(a["independent"]), num(a["component sum"])
	// Shared noise must land near the component-tail sum; independent
	// noise must under-shoot it.
	if math.Abs(shared-sum)/sum > 0.05 {
		t.Errorf("shared tail %.0f should approximate component sum %.0f", shared, sum)
	}
	if independent >= shared {
		t.Errorf("independent tail %.0f should undershoot shared %.0f", independent, shared)
	}
}

func TestAblateRelocShape(t *testing.T) {
	a := rows(t, run(t, "ablate-reloc"), 0)
	if len(a) != 4 {
		t.Fatalf("rows = %d", len(a))
	}
	mean := func(i int) float64 { return num(a[i]["mean ms"]) }
	tail := func(i int) float64 { return num(a[i]["P99.99 ms"]) }
	never, frequent := 0, 3
	// Means stay within a few ms of each other; tails diverge hugely.
	if math.Abs(mean(frequent)-mean(never)) > 5 {
		t.Errorf("means diverged: %.1f vs %.1f", mean(never), mean(frequent))
	}
	if tail(frequent) < 3*tail(never) {
		t.Errorf("reloc tail %.1f should dwarf no-reloc tail %.1f", tail(frequent), tail(never))
	}
	// Any reloc rate above 1/10000 pins the tail at the wide-search cost.
	if math.Abs(tail(1)-tail(3)) > 1 {
		t.Error("tail should be rate-insensitive once spikes clear the quantile")
	}
}

func TestAblateCoolingShape(t *testing.T) {
	for _, row := range rows(t, run(t, "ablate-cooling"), 0) {
		if x := num(row["x"]); x < 1.5 || x > 2.0 {
			t.Errorf("%s: cooling magnification %.2f outside [1.5,2.0]", row["DET/TRA/LOC"], x)
		}
	}
}

func TestStorageShape(t *testing.T) {
	st := rows(t, run(t, "storage"), 0)[0]
	if st["keyframes"].(int) == 0 || num(st["map KB"]) == 0 {
		t.Fatal("empty survey")
	}
	// The from-scratch extrapolation must land within an order of
	// magnitude of the paper's 41 TB.
	us, paper := num(st["US TB"]), num(st["paper TB"])
	if us < paper/10 || us > paper*10 {
		t.Errorf("US extrapolation %.1f TB not within 10x of the paper's %.0f TB", us, paper)
	}
}

func TestPlatformAnalysisShape(t *testing.T) {
	pa := rows(t, run(t, "platform-analysis"), 0)
	if len(pa) != 12 {
		t.Fatalf("rows = %d", len(pa))
	}
	// The implied efficiency is effective / peak; the table prints it as
	// text.
	efficiency := func(p accel.Platform, e accel.Engine) float64 {
		r := find(t, pa, []string{"Platform", "Engine"}, p, e)
		return num(r["effective"]) / num(r["peak"])
	}
	// GPU DET efficiency in the plausible cuDNN band.
	if eff := efficiency(accel.GPU, accel.DET); eff < 0.1 || eff > 0.6 {
		t.Errorf("GPU DET implied efficiency %.2f outside [0.1,0.6]", eff)
	}
	// CPU efficiency is very low (the paper's framework overheads).
	if eff := efficiency(accel.CPU, accel.DET); eff > 0.05 {
		t.Errorf("CPU DET implied efficiency %.3f too high", eff)
	}
	// FPGA DET is DSP-bound below peak.
	if eff := efficiency(accel.FPGA, accel.DET); eff >= 1 {
		t.Errorf("FPGA DET efficiency %.2f should be <1", eff)
	}
	// The extrapolated TRA ASIC implies multiple EIE-grade units.
	if eff := efficiency(accel.ASIC, accel.TRA); eff <= 1 {
		t.Errorf("ASIC TRA implied units %.2f should exceed 1 (extrapolated design)", eff)
	}
}

func TestRooflineShape(t *testing.T) {
	r := rows(t, run(t, "roofline"), 0)
	if len(r) != 12 {
		t.Fatalf("summaries = %d, want 3 networks x 4 platforms", len(r))
	}
	memoryBoundShare := func(net string, p accel.Platform) float64 {
		return num(find(t, r, []string{"Network", "Platform"}, net, p)["memory-bound MACs"])
	}
	// YOLOv2's conv stack is compute-dominated on the GPU.
	if share := memoryBoundShare("yolov2", accel.GPU); share > 0.3 {
		t.Errorf("YOLOv2 on GPU %.0f%% memory-bound; conv should be compute-bound", 100*share)
	}
	// GOTURN's FC head is memory-bound everywhere general-purpose.
	for _, p := range []accel.Platform{accel.CPU, accel.GPU, accel.FPGA} {
		if share := memoryBoundShare("goturn-head", p); share < 0.9 {
			t.Errorf("GOTURN head on %v only %.0f%% memory-bound", p, 100*share)
		}
	}
	// The FPGA, with its 6.4 GB/s link, is the most memory-bound platform
	// for YOLOv2.
	if memoryBoundShare("yolov2", accel.FPGA) <= memoryBoundShare("yolov2", accel.GPU) {
		t.Error("FPGA should be more memory-bound than GPU on YOLOv2")
	}
}

func TestAblateCamerasShape(t *testing.T) {
	a := rows(t, run(t, "ablate-cameras"), 0)
	if len(a) != 16 {
		t.Fatalf("rows = %d, want 4 configs x 4 camera counts", len(a))
	}
	get := func(asn pipeline.Assignment, cams int, col string) float64 {
		return num(find(t, a, []string{"DET/TRA/LOC", "cameras"}, asn.Short(), cams)[col])
	}
	cpu := pipeline.Assignment{Det: accel.CPU, Tra: accel.CPU, Loc: accel.ASIC}
	asic := pipeline.Uniform(accel.ASIC)
	// CPU-jitter tail inflates with camera count; ASIC pays nothing.
	if get(cpu, 8, "inflation") < 2 {
		t.Errorf("CPU 8-camera inflation %.1f%% too small", get(cpu, 8, "inflation"))
	}
	if abs := get(asic, 8, "inflation"); abs > 0.5 || abs < -0.5 {
		t.Errorf("ASIC 8-camera inflation %.1f%% should be ~0", abs)
	}
	// Inflation grows with camera count on the jittery platform.
	if get(cpu, 8, "P99.99 ms") < get(cpu, 2, "P99.99 ms") {
		t.Error("CPU tail should grow with camera count")
	}
}

func TestEnergyShape(t *testing.T) {
	en := rows(t, run(t, "energy"), 0)
	// A row per platform, keyed "", and a column per engine.
	if cells := len(en) * (len(en[0]) - 1); cells != 12 {
		t.Fatalf("rows = %d", cells)
	}
	j := func(p accel.Platform, e accel.Engine) float64 {
		return num(find(t, en, []string{""}, p.String())[e.String()])
	}
	// The crossover the experiment exists to show: GPU beats the slow CNN
	// ASIC on DET energy, while the TRA/LOC ASICs win by large factors.
	if j(accel.GPU, accel.DET) >= j(accel.ASIC, accel.DET) {
		t.Errorf("GPU DET energy %.3f should beat ASIC %.3f", j(accel.GPU, accel.DET), j(accel.ASIC, accel.DET))
	}
	if j(accel.ASIC, accel.TRA)*10 > j(accel.GPU, accel.TRA) {
		t.Error("TRA ASIC should win energy by >10x")
	}
	if j(accel.ASIC, accel.LOC)*100 > j(accel.GPU, accel.LOC) {
		t.Error("LOC ASIC should win energy by >100x")
	}
	// CPUs lose everywhere.
	for _, e := range accel.Engines() {
		if j(accel.CPU, e) < j(accel.GPU, e) {
			t.Errorf("CPU should lose energy on %v", e)
		}
	}
}

func TestAblateObjectsShape(t *testing.T) {
	a := rows(t, run(t, "ablate-objects"), 0)
	if len(a) != 15 {
		t.Fatalf("rows = %d, want 3 configs x 5 counts", len(a))
	}
	gpuTra := pipeline.Assignment{Det: accel.GPU, Tra: accel.GPU, Loc: accel.ASIC}
	asicTra := pipeline.Assignment{Det: accel.GPU, Tra: accel.ASIC, Loc: accel.ASIC}
	// maxObjects is the largest object count in the sweep where the
	// assignment still meets the tail constraint (0 if none).
	maxObjects := func(asn pipeline.Assignment) int {
		best := 0
		for _, row := range a {
			if row["DET/TRA/LOC"] == asn.Short() && row["<=100ms"].(bool) && row["objects"].(int) > best {
				best = row["objects"].(int)
			}
		}
		return best
	}
	// The FC ASIC sustains strictly more tracked objects under the
	// deadline than the GPU tracker.
	if maxObjects(asicTra) <= maxObjects(gpuTra) {
		t.Errorf("ASIC TRA sustains %d objects, GPU TRA %d — ASIC should win",
			maxObjects(asicTra), maxObjects(gpuTra))
	}
	// GPU tracking fails the deadline before 32 objects.
	if maxObjects(gpuTra) >= 32 {
		t.Error("GPU TRA should blow the deadline within the sweep")
	}
	// Tails grow monotonically with object count.
	for _, cfgA := range []pipeline.Assignment{gpuTra, asicTra} {
		var prev float64
		for _, row := range a {
			if row["DET/TRA/LOC"] != cfgA.Short() {
				continue
			}
			if num(row["P99.99 ms"]) < prev*0.98 {
				t.Errorf("%s: tail not monotone in objects", cfgA.Short())
			}
			prev = num(row["P99.99 ms"])
		}
	}
}

func TestAccuracyShape(t *testing.T) {
	acc := rows(t, run(t, "accuracy"), 0)
	if len(acc) != 5 {
		t.Fatalf("rows = %d", len(acc))
	}
	recall := func(i int) float64 { return num(acc[i]["recall"]) }
	maxRange := func(i int) float64 { return num(acc[i]["max range"]) }
	first, last := 0, len(acc)-1
	// Recall grows with resolution until the scenario saturates (the
	// Fig 13 premise), and never regresses.
	if recall(last) <= recall(first) {
		t.Errorf("QHD recall %.2f should exceed HHD %.2f", recall(last), recall(first))
	}
	for i := 1; i < len(acc); i++ {
		if recall(i) < recall(i-1)-1e-9 {
			t.Errorf("recall regressed at %s", acc[i]["Resolution"])
		}
	}
	if maxRange(last) < maxRange(first) {
		t.Errorf("QHD range %.1f m should not trail HHD %.1f m", maxRange(last), maxRange(first))
	}
	for i, row := range acc {
		if row["truths"].(int) == 0 {
			t.Fatalf("%s: no ground truth evaluated", row["Resolution"])
		}
		if recall(i) < 0.4 {
			t.Errorf("%s: recall %.2f implausibly low", row["Resolution"], recall(i))
		}
	}
}

func TestSeedsShape(t *testing.T) {
	res := run(t, "seeds")
	seeds, sd := rows(t, res, 0)[0]["seeds"].([]int64), rows(t, res, 1)
	if len(sd) != 4 || len(seeds) != 5 {
		t.Fatalf("rows=%d seeds=%d", len(sd), len(seeds))
	}
	for _, row := range sd {
		name, lo, hi, spread := row["DET/TRA/LOC"], num(row["min tail ms"]), num(row["max tail ms"]), num(row["spread"])
		if tails := row["tails"].([]float64); len(tails) != 5 {
			t.Fatalf("%s: %d tails", name, len(tails))
		}
		if lo <= 0 || hi < lo {
			t.Fatalf("%s: bad min/max %.1f/%.1f", name, lo, hi)
		}
		// The conclusions must be seed-robust: spread stays in single
		// digits of percent.
		if spread > 10 {
			t.Errorf("%s: seed spread %.1f%% too large", name, spread)
		}
	}
	// Fixed-latency ASIC tails are exactly seed-invariant... except for
	// the sub-ms fusion/motplan jitter; allow a tiny spread.
	for _, row := range sd {
		if row["DET/TRA/LOC"] == pipeline.Uniform(accel.ASIC).Short() && num(row["spread"]) > 1 {
			t.Errorf("ASIC seed spread %.2f%% should be ~0", num(row["spread"]))
		}
	}
}

func TestTailStudy(t *testing.T) {
	// The study runs on the virtual frame clock, so its latencies are a pure
	// function of seed and sizing (TestGolden pins the render). Stage service
	// time is not on that clock yet: the resolution ladder and the anytime
	// exit move no virtual time, so the tail asserted here is the window
	// lever's alone, and neither knob's effect on it is asserted.
	rs := rows(t, run(t, "tail"), 0)
	base, sched := find(t, rs, []string{"config"}, "static"), find(t, rs, []string{"config"}, "adaptive")
	if base["min-win"] != tailCeiling || base["rung"] != 0 || base["anytime"] != 0 {
		t.Errorf("static run touched scheduler state: %v", base)
	}
	if sched["min-win"] != 1 {
		t.Errorf("scheduled min-win = %v, want 1 (conservative start)", sched["min-win"])
	}
	if sched["rung"] == 0 {
		t.Errorf("controller never descended the resolution ladder under sustained stalls")
	}
	if base["hard-miss"] == 0 {
		t.Errorf("static window never queued past the constraint: %v", base)
	}
	if num(sched["p99.99-ms"]) >= num(base["p99.99-ms"]) || sched["hard-miss"] != 0 {
		t.Errorf("scheduler did not cut the tail: p99.99 %.1f -> %.1f ms, hard misses %v -> %v",
			base["p99.99-ms"], sched["p99.99-ms"], base["hard-miss"], sched["hard-miss"])
	}
	if num(base["dets/frame"]) <= 0 || num(sched["dets/frame"]) <= 0 {
		t.Errorf("degenerate detection rates: %.3f vs %.3f dets/frame",
			base["dets/frame"], sched["dets/frame"])
	}
}

func TestScenariosStudy(t *testing.T) {
	// The sweep's value here is structural — every library program compiles,
	// runs, is judged and replays — and, on the frame clock, its numbers:
	// TestGolden pins the render.
	res := run(t, "scenarios")
	frames := 3 * fastOpts().NativeFrames
	verdicts, misses := rows(t, res, 0), rows(t, res, 1)
	if len(verdicts) < 6 {
		t.Fatalf("swept %d programs, want the whole library (>= 6)", len(verdicts))
	}
	degraded := 0
	for i, r := range verdicts {
		if r["frames"] != frames || r["errors"] != 0 {
			t.Errorf("%s: frames=%v errors=%v", r["program"], r["frames"], r["errors"])
		}
		if misses[i]["replay"] != passFail(true) {
			t.Errorf("%s: replay diverged", r["program"])
		}
		degraded += r["degraded"].(int)
	}
	if degraded == 0 {
		t.Error("no program exercised the degraded path; the fault-bearing library programs are inert")
	}
	out := res.Render()
	if !strings.Contains(out, "scenario-sweep PASS") {
		t.Errorf("structural sweep fails its own bar:\n%s", out)
	}
	for _, want := range []string{"rush-hour", "cut-in", "blackout", "loop-closure", "mixed-stress"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestAllRendersNonEmpty renders every registered experiment. It is last in
// the file so the results are the ones the tests above produced; an id with
// no test of its own, or any id when this test is selected alone, runs here.
func TestAllRendersNonEmpty(t *testing.T) {
	for _, id := range IDs() {
		res, ok := produced[id]
		if !ok {
			res = run(t, id)
		}
		if res.Render() == "" {
			t.Errorf("%s: empty render", id)
		}
	}
}
