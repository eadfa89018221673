// Package adsim is a reproduction of "The Architectural Implications of
// Autonomous Driving: Constraints and Acceleration" (Lin et al., ASPLOS
// 2018) as a Go library.
//
// It provides:
//
//   - An end-to-end autonomous driving pipeline with native Go
//     implementations of every engine the paper builds: a YOLO-style object
//     detector, a GOTURN-style tracker pool, an ORB-SLAM-style localizer
//     (oFAST + rBRIEF + prior map + relocalization + loop closing), sensor
//     fusion, lattice motion planners and a rule-based mission planner —
//     see NewPipeline.
//
//   - Calibrated analytical models of the paper's four computing platforms
//     (CPU, GPU, FPGA, ASIC) that regenerate its latency, power and
//     scalability results — see NewModel and Simulate.
//
//   - The paper's design-constraint checks (performance, predictability,
//     storage, thermal, power) — see CheckConstraints.
//
//   - Every table and figure of the paper's evaluation as a runnable
//     experiment — see RunExperiment and the adbench command.
//
// The package is a facade over the internal implementation packages; the
// exported names below are aliases, so values flow freely between the
// facade and the engines. It carries only the names the commands,
// examples and benchmarks use, plus the types its own signatures mention.
package adsim

import (
	"adsim/internal/accel"
	"adsim/internal/constraint"
	"adsim/internal/experiment"
	"adsim/internal/faultinject"
	"adsim/internal/pipeline"
	"adsim/internal/scenario"
	"adsim/internal/scene"
	"adsim/internal/slam"
	"adsim/internal/stats"
	"adsim/internal/telemetry"
)

// Platform identifies one of the paper's four computing platforms.
type Platform = accel.Platform

// Platform values (the paper's Table 2).
const (
	CPU  = accel.CPU
	GPU  = accel.GPU
	FPGA = accel.FPGA
	ASIC = accel.ASIC
)

// The three computational bottleneck engines.
const (
	DET = accel.DET
	TRA = accel.TRA
	LOC = accel.LOC
)

// ScenarioKind selects a synthetic driving scenario archetype.
type ScenarioKind = scene.Kind

// Scenario kinds.
const (
	Highway = scene.Highway
	Urban   = scene.Urban
)

// Model is the calibrated platform latency/power model.
type Model = accel.Model

// NewModel builds the platform model calibrated against the paper's
// measurements (see internal/accel/calib.go for every constant).
func NewModel() *Model { return accel.NewModel() }

// Assignment maps each bottleneck engine to a platform.
type Assignment = pipeline.Assignment

// Uniform returns the assignment running every engine on p.
func Uniform(p Platform) Assignment { return pipeline.Uniform(p) }

// SimConfig parameterizes a simulated (paper-scale) run.
type SimConfig = pipeline.SimConfig

// SimResult holds a simulated run's latency distributions.
type SimResult = pipeline.SimResult

// Simulate composes per-frame latency samples from the platform models
// under the pipeline's dependency law.
func Simulate(m *Model, cfg SimConfig) (SimResult, error) {
	return pipeline.Simulate(m, cfg)
}

// Pipeline is the native end-to-end autonomous driving system.
type Pipeline = pipeline.Pipeline

// PipelineConfig parameterizes the native pipeline.
type PipelineConfig = pipeline.Config

// FrameResult is the output of one native pipeline step.
type FrameResult = pipeline.FrameResult

// DefaultPipelineConfig returns a ready-to-run configuration for a
// scenario kind.
func DefaultPipelineConfig(kind ScenarioKind) PipelineConfig {
	return pipeline.DefaultConfig(kind)
}

// NewPipeline constructs the native pipeline for a scenario kind with
// default settings. Use NewPipelineFromConfig for full control.
func NewPipeline(kind ScenarioKind) (*Pipeline, error) {
	return pipeline.NewNative(DefaultPipelineConfig(kind))
}

// NewPipelineFromConfig constructs the native pipeline from an explicit
// configuration.
func NewPipelineFromConfig(cfg PipelineConfig) (*Pipeline, error) {
	return pipeline.NewNative(cfg)
}

// Runner pipelines multiple frames through a native pipeline concurrently,
// delivering results in frame order that are bitwise-identical to a
// sequential Step loop.
type Runner = pipeline.Runner

// RunnerOptions parameterizes the pipelined executor.
type RunnerOptions = pipeline.RunnerOptions

// RunnerResult is one frame's output from the pipelined executor.
type RunnerResult = pipeline.RunnerResult

// NewRunner wraps a native pipeline in a pipelined executor. The runner
// owns the pipeline from construction: do not call Step on it afterwards.
func NewRunner(p *Pipeline, opts RunnerOptions) (*Runner, error) {
	return pipeline.NewRunner(p, opts)
}

// TailScheduler is the closed-loop tail-latency controller: it adapts the
// pipelined executor's admission window and steps DET's input resolution
// down a committed ladder when a 16-frame period's worst delivered latency
// nears its target, recovering both once periods run calm — the law fleet
// admission runs too (AdmissionConfig). Wire one
// into RunnerOptions.Tail — the only seat; InFlight 1 is the sequential
// schedule (window pinned at 1, ladder only). One scheduler serves exactly
// one Runner.
type TailScheduler = pipeline.TailScheduler

// TailConfig parameterizes a TailScheduler.
type TailConfig = pipeline.TailConfig

// NewTailScheduler validates a TailConfig and constructs the controller.
func NewTailScheduler(cfg TailConfig) (*TailScheduler, error) {
	return pipeline.NewTailScheduler(cfg)
}

// Fleet drives N vehicle pipelines concurrently, their DET/TRA engines
// sharing one executor (each vehicle's share of FleetConfig.Executor's
// workers) and one copy of the network weights and, optionally, one
// prior-map store. Per-vehicle results are bitwise-identical to solo runs
// of the same seeds.
type Fleet = pipeline.Fleet

// FleetConfig parameterizes a Fleet.
type FleetConfig = pipeline.FleetConfig

// NewFleet builds a fleet of vehicle pipelines; nothing executes until Run.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return pipeline.NewFleet(cfg) }

// AdmissionConfig parameterizes the fleet's frame-budget admission
// controller (FleetConfig.Admission): when a 16-frame period's worst
// delivered latency nears the target, whole vehicle streams are shed (worst
// first, ties toward the highest vehicle ID) and readmitted with hysteresis
// once pressure subsides — the TailScheduler's law, one stream at a step.
type AdmissionConfig = pipeline.AdmissionConfig

// Distribution accumulates latency samples and answers quantile queries.
type Distribution = stats.Distribution

// NewDistribution returns an empty distribution with capacity n.
func NewDistribution(n int) *Distribution { return stats.NewDistribution(n) }

// TelemetrySink receives per-stage spans and per-frame completions from
// the pipeline's executors.
type TelemetrySink = telemetry.Sink

// TelemetrySpan is one stage execution of one frame (queue wait + execute).
type TelemetrySpan = telemetry.Span

// TelemetryFrameEnd marks one frame's delivery.
type TelemetryFrameEnd = telemetry.FrameEnd

// TelemetryCollector aggregates spans into per-stage latency metrics and
// renders JSON/CSV/text summaries.
type TelemetryCollector = telemetry.Collector

// NewTelemetryCollector returns a collector whose distributions keep the
// last windowCap samples (≤ 0 selects the default).
func NewTelemetryCollector(windowCap int) *TelemetryCollector {
	return telemetry.NewCollector(windowCap)
}

// MultiSink fans telemetry out to several sinks.
func MultiSink(sinks ...TelemetrySink) TelemetrySink { return telemetry.Multi(sinks...) }

// ConstraintMonitor folds delivered frames into a rolling window and gives
// live performance/predictability verdicts; it implements TelemetrySink.
type ConstraintMonitor = constraint.Monitor

// ConstraintMonitorConfig parameterizes the live monitor.
type ConstraintMonitorConfig = constraint.MonitorConfig

// NewConstraintMonitor returns a live constraint monitor.
func NewConstraintMonitor(cfg ConstraintMonitorConfig) *ConstraintMonitor {
	return constraint.NewMonitor(cfg)
}

// ConstraintInput describes a candidate system for constraint checking.
type ConstraintInput = constraint.Input

// ConstraintReport is the verdict across all constraint classes.
type ConstraintReport = constraint.Report

// CheckConstraints evaluates the paper's Section 2.4 design constraints.
func CheckConstraints(in ConstraintInput) ConstraintReport { return constraint.Check(in) }

// Pose is the 2D ground-plane vehicle pose used throughout the pipeline.
type Pose = scene.Pose

// Keyframe is one prior-map entry: the features observed at a surveyed
// pose.
type Keyframe = slam.Keyframe

// PriorMap is the monolithic in-memory prior map the LOC engine localizes
// against. It implements MapStore.
type PriorMap = slam.PriorMap

// NewPriorMap returns an empty prior map.
func NewPriorMap() *PriorMap { return slam.NewPriorMap() }

// MapStore is the prior-map database interface the LOC engine reads:
// monolithic in memory (PriorMap) or tiled on disk, loaded on demand
// through a byte-budgeted LRU cache (ShardStore). The paper's storage
// constraint (~41 TB of US prior maps) is why the map must be able to
// page.
type MapStore = slam.MapStore

// ShardStore is the tiled on-disk prior-map store with an LRU shard cache.
// It is read-only: an engine over it keeps its runtime map updates in a
// private overlay.
type ShardStore = slam.ShardStore

// ShardStoreOptions parameterizes OpenShardStore (its cache budget); the
// store's CacheStats reports the cache's hits, misses and evictions.
type ShardStoreOptions = slam.ShardStoreOptions

// ShardIndex is a shard directory's table of contents.
type ShardIndex = slam.ShardIndex

// WriteMapShards splits a prior map into fixed-pitch longitudinal tiles
// under dir (ADM1 shard files plus a JSON index) for serving through a
// ShardStore. pitch ≤ 0 selects the default tile pitch.
func WriteMapShards(m *PriorMap, dir string, pitch float64) (*ShardIndex, error) {
	return slam.WriteShards(m, dir, pitch)
}

// OpenShardStore opens a shard directory written by WriteMapShards.
func OpenShardStore(dir string, opts ShardStoreOptions) (*ShardStore, error) {
	return slam.OpenShardStore(dir, opts)
}

// LOCConfig parameterizes the localization engine.
type LOCConfig = slam.Config

// DefaultLOCConfig returns the standard LOC configuration.
func DefaultLOCConfig() LOCConfig { return slam.DefaultConfig() }

// LOCEngine is the standalone localization engine (the pipeline embeds
// one; build your own over a MapStore to replay against sharded maps).
type LOCEngine = slam.Engine

// NewLOCEngine builds a localization engine over any prior-map store; a
// read-only one (ShardStore) gets a private overlay for the engine's map
// updates.
func NewLOCEngine(cfg LOCConfig, store MapStore) (*LOCEngine, error) {
	return slam.NewEngineStore(cfg, store)
}

// DeadlinePolicy configures per-stage deadline budgets and degraded-mode
// enforcement on the native pipeline (PipelineConfig.Deadline).
type DeadlinePolicy = pipeline.DeadlinePolicy

// FaultScenario is a reproducible chaos specification: a seed and a rule
// list, evaluated by a FaultInjector.
type FaultScenario = faultinject.Scenario

// FaultInjector evaluates a fault scenario deterministically; wire
// Injector.Stage into PipelineConfig.Inject.
type FaultInjector = faultinject.Injector

// NewFaultInjector validates a scenario and returns its injector.
func NewFaultInjector(sc FaultScenario) (*FaultInjector, error) { return faultinject.New(sc) }

// ParseFaultScenario builds a scenario from the compact rule syntax the
// adpipe -fault flag accepts (e.g. "DET:delay=30ms:every=5,SRC:drop:every=50").
func ParseFaultScenario(spec string, seed int64) (FaultScenario, error) {
	return faultinject.Parse(spec, seed)
}

// ScenarioProgram is a validated, replayable scenario program: phased world
// clauses (traffic density, driver profiles, illumination, blackout and
// occlusion windows, loop segments) and fault rules in one text format.
// See internal/scenario for the grammar; the committed library lives in
// scenarios/ and ships compiled into the binary.
type ScenarioProgram = scenario.Program

// SceneConfig parameterizes the synthetic world generator
// (PipelineConfig.Scene and FleetConfig.Scenes use it).
type SceneConfig = scene.Config

// ResolveScenarioProgram loads a program by library name or, failing that,
// by file path — the lookup behind the -scenario CLI flags.
func ResolveScenarioProgram(ref string) (*ScenarioProgram, error) { return scenario.Resolve(ref) }

// ScenarioLibrary lists the committed scenario-program names.
func ScenarioLibrary() []string { return scenario.Library() }

// FaultScenarioFromProgram lifts a program's fault rules into a seeded
// FaultScenario for NewFaultInjector.
func FaultScenarioFromProgram(prog *ScenarioProgram, seed int64) FaultScenario {
	return faultinject.FromProgram(prog, seed)
}

// ExperimentOptions tune experiment execution.
type ExperimentOptions = experiment.Options

// DefaultExperimentOptions returns the standard experiment sizing.
func DefaultExperimentOptions() ExperimentOptions { return experiment.DefaultOptions() }

// ExperimentIDs lists the available experiments (one per paper table and
// figure, plus the headline claim).
func ExperimentIDs() []string { return experiment.IDs() }

// RunExperiment regenerates one paper table/figure and returns its rendered
// output.
func RunExperiment(id string, opts ExperimentOptions) (string, error) {
	res, err := experiment.Run(id, opts)
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}
