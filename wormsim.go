// Package wormsim is a discrete-event simulator for broadcast
// communication in wormhole-switched interconnection networks. It
// reproduces the system of Al-Dubai & Ould-Khaoua, "On the
// Performance of Broadcast Algorithms in Interconnection Networks"
// (ICPP Workshops 2005): a flit-level-approximate wormhole mesh model
// with single-queue channels, the Coded-Path Routing (CPR) substrate,
// and the four broadcast algorithms the paper compares — Recursive
// Doubling (RD), Extended Dominating Nodes (EDN), Deterministic
// Broadcast (DB) and Adaptive Broadcast (AB) — together with the
// workload generators and statistics needed to regenerate every
// figure and table of the paper's evaluation.
//
// # Quick start
//
//	m := wormsim.NewMesh(8, 8, 8)
//	r, err := wormsim.RunBroadcast(m, wormsim.NewAB(), m.ID(3, 4, 2), wormsim.DefaultConfig(), 100)
//	if err != nil { ... }
//	fmt.Println("latency:", r.Latency(), "µs")
//
// The package is a facade: the implementation lives in internal
// packages (topology, routing, core, network, broadcast, traffic,
// metrics, experiments), re-exported here as type aliases so the
// whole system is reachable through one import.
package wormsim

import (
	"context"

	"repro/internal/broadcast"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Topology types.
type (
	// NodeID identifies a node; IDs are dense in [0, Nodes()).
	NodeID = topology.NodeID
	// ChannelID identifies a directed channel.
	ChannelID = topology.ChannelID
	// Mesh is a k-ary n-dimensional mesh or torus.
	Mesh = topology.Mesh
	// Topology is the abstract interconnect interface.
	Topology = topology.Topology
	// GeneralizedHypercube is the GH(k0,…,kn-1) topology.
	GeneralizedHypercube = topology.GeneralizedHypercube
)

// NewMesh returns a mesh with the given per-dimension extents.
func NewMesh(dims ...int) *Mesh { return topology.NewMesh(dims...) }

// NewTorus returns a torus (k-ary n-cube) with the given extents.
func NewTorus(dims ...int) *Mesh { return topology.NewTorus(dims...) }

// NewMeshImplicit returns a mesh whose adjacency is computed from
// coordinates on demand instead of stored per node — O(dims) memory
// regardless of node count, interchangeable with NewMesh (same IDs,
// channels, routes and neighbor order). Build million-node substrates
// with this and Config.Store = StoreLazy.
func NewMeshImplicit(dims ...int) *Mesh { return topology.NewMeshImplicit(dims...) }

// NewTorusImplicit is NewTorus with on-demand adjacency; see
// NewMeshImplicit.
func NewTorusImplicit(dims ...int) *Mesh { return topology.NewTorusImplicit(dims...) }

// NewGeneralizedHypercube builds GH(dims...).
func NewGeneralizedHypercube(dims ...int) *GeneralizedHypercube {
	return topology.NewGeneralizedHypercube(dims...)
}

// NewHypercube builds the binary n-cube with 2^n nodes.
func NewHypercube(n int) *GeneralizedHypercube { return topology.NewHypercube(n) }

// Routing.
type (
	// Selector is a minimal routing function.
	Selector = routing.Selector
)

// NewDOR returns deterministic dimension-order routing over m.
func NewDOR(m *Mesh, order ...int) Selector { return routing.NewDOR(m, order...) }

// NewWestFirst returns the west-first turn-model adaptive routing
// function over m (generalised to negative-first in 3D). It panics on
// a torus — use NewTorusWestFirst or WestFirstFor there.
func NewWestFirst(m *Mesh) Selector { return routing.NewWestFirst(m) }

// NewOddEven returns Chiu's odd-even turn-model adaptive routing. It
// panics on a torus — use NewTorusOddEven or OddEvenFor there.
func NewOddEven(m *Mesh) Selector { return routing.NewOddEven(m) }

// NewDatelineDOR returns dimension-order routing with dateline
// virtual channels: deadlock-free minimal routing on tori when the
// network runs two or more VCs (Config.VCs). It is the router a
// torus network installs by default.
func NewDatelineDOR(m *Mesh, order ...int) Selector { return routing.NewDatelineDOR(m, order...) }

// NewTorusWestFirst returns the torus-capable west-first turn model:
// minimal dateline routing along wraparound dimensions, west-first
// adaptivity on the rest.
func NewTorusWestFirst(m *Mesh) Selector { return routing.NewTorusWestFirst(m) }

// NewTorusOddEven returns the torus-capable odd-even turn model.
func NewTorusOddEven(m *Mesh) Selector { return routing.NewTorusOddEven(m) }

// WestFirstFor returns the west-first routing function appropriate
// for m: the mesh turn model on a mesh, the torus-capable variant on
// a torus.
func WestFirstFor(m *Mesh) Selector { return routing.WestFirstFor(m) }

// OddEvenFor returns the odd-even routing function appropriate for m.
func OddEvenFor(m *Mesh) Selector { return routing.OddEvenFor(m) }

// Network simulation.
type (
	// Config carries the network timing and port parameters.
	Config = network.Config
	// Network is the simulated wormhole interconnect.
	Network = network.Network
	// Transfer describes one worm to inject.
	Transfer = network.Transfer
	// Simulator is the discrete-event kernel.
	Simulator = sim.Simulator
	// Time is simulated time in microseconds.
	Time = sim.Time
)

// DefaultConfig returns the paper's baseline timing: Ts=1.5 µs,
// β=0.003 µs/flit, one injection port.
func DefaultConfig() Config { return network.DefaultConfig() }

// StoreMode selects the network's state-allocation model (see
// Config.Store): dense up-front slices, a paged
// allocate-on-first-contention store, or an automatic choice by node
// count. The stores are observationally equivalent.
type StoreMode = network.StoreMode

const (
	// StoreAuto (the default) picks dense below LazyStoreThreshold
	// nodes and lazy at or above it.
	StoreAuto = network.StoreAuto
	// StoreDense forces the historical dense store.
	StoreDense = network.StoreDense
	// StoreLazy forces the paged lazy store.
	StoreLazy = network.StoreLazy
	// LazyStoreThreshold is StoreAuto's switchover node count.
	LazyStoreThreshold = network.LazyStoreThreshold
)

// Calendar selects the event-calendar implementation backing a
// simulator: CalendarLadder (the default amortized-O(1) ladder queue)
// or CalendarHeap (the legacy binary heap, kept as a cross-checking
// reference). Both execute any schedule in the identical order;
// only throughput differs.
type Calendar = sim.Calendar

const (
	// CalendarLadder is the default ladder-queue calendar.
	CalendarLadder = sim.Ladder
	// CalendarHeap is the legacy binary-heap calendar.
	CalendarHeap = sim.Heap
)

// ParseCalendar converts a -calendar flag value ("ladder" or "heap")
// into a Calendar.
func ParseCalendar(name string) (Calendar, error) { return sim.ParseCalendar(name) }

// SetDefaultCalendar selects the calendar every subsequently created
// simulator uses — including the ones experiments and scenarios build
// internally. Call it before starting a run, not during one.
func SetDefaultCalendar(c Calendar) { sim.SetDefaultCalendar(c) }

// DefaultCalendar reports the calendar NewSimulator currently uses.
func DefaultCalendar() Calendar { return sim.DefaultCalendar() }

// SetDefaultWavefront selects whether every subsequently created
// simulator executes same-instant event runs as batched wavefronts
// (the default) or pops one event at a time. Output is byte-identical
// either way — the knob exists for A/B speed runs and differential
// tests (cmd/paperbench and cmd/sweep expose it as -wavefront).
func SetDefaultWavefront(on bool) { sim.SetDefaultWavefront(on) }

// DefaultWavefront reports whether NewSimulator currently enables
// wavefront batch execution.
func DefaultWavefront() bool { return sim.DefaultWavefront() }

// WavefrontStats is a simulator's wavefront batch-size census:
// batches drained, events they carried, and a log2 size histogram.
type WavefrontStats = sim.WavefrontStats

// NewSimulator returns an empty discrete-event simulator backed by
// the process default calendar.
func NewSimulator() *Simulator { return sim.New() }

// NewSimulatorWithCalendar returns an empty discrete-event simulator
// backed by the given calendar implementation.
func NewSimulatorWithCalendar(c Calendar) *Simulator { return sim.NewWithCalendar(c) }

// NewNetwork builds a wormhole network over topo driven by s.
func NewNetwork(s *Simulator, topo Topology, cfg Config) (*Network, error) {
	return network.New(s, topo, cfg)
}

// Broadcast algorithms.
type (
	// Algorithm plans broadcasts on a mesh.
	Algorithm = broadcast.Algorithm
	// Plan is a broadcast schedule.
	Plan = broadcast.Plan
	// Result reports one executed broadcast.
	Result = broadcast.Result
	// ExecOptions configures plan execution on a network.
	ExecOptions = broadcast.Options
)

// NewRD returns the Recursive Doubling planner (Barnett et al.).
func NewRD() Algorithm { return broadcast.NewRD() }

// NewEDN returns the Extended Dominating Node planner (Tsai & McKinley).
func NewEDN() Algorithm { return broadcast.NewEDN() }

// NewDB returns the paper's Deterministic Broadcast planner.
func NewDB() Algorithm { return broadcast.NewDB() }

// NewAB returns the paper's Adaptive Broadcast planner.
func NewAB() Algorithm { return broadcast.NewAB() }

// Algorithms returns all four planners in the paper's order.
func Algorithms() []Algorithm { return experiments.PaperAlgorithms() }

// RunBroadcast executes one single-source broadcast of length flits
// from src on an idle network over m and returns the per-node arrival
// results.
func RunBroadcast(m *Mesh, algo Algorithm, src NodeID, cfg Config, length int) (*Result, error) {
	return broadcast.RunSingle(m, algo, src, cfg, length)
}

// StepStats summarises the arrivals of one message-passing step.
type StepStats = broadcast.StepStats

// StepBreakdown attributes each destination's arrival to the plan
// step that covered it — the quantitative form of the paper's
// node-level parallelism argument.
func StepBreakdown(m *Mesh, r *Result) []StepStats { return broadcast.StepBreakdown(m, r) }

// FormatBreakdown renders a step breakdown as an aligned text table.
func FormatBreakdown(algo string, breakdown []StepStats) string {
	return broadcast.FormatBreakdown(algo, breakdown)
}

// ExecuteBroadcast wires a validated plan into an existing network;
// the result fills in as the caller advances the simulator. Use this
// to overlap several broadcasts in one simulation.
func ExecuteBroadcast(net *Network, plan *Plan, opt ExecOptions) (*Result, error) {
	return broadcast.Execute(net, plan, opt)
}

// Statistics and studies.
type (
	// Accumulator collects running moments.
	Accumulator = stats.Accumulator
	// Interval is a confidence interval.
	Interval = stats.Interval
	// SingleSourceStats aggregates replicated broadcast studies.
	SingleSourceStats = metrics.SingleSourceStats
	// ContendedConfig parameterises the node-level CV study.
	ContendedConfig = metrics.ContendedConfig
	// MixedConfig parameterises the 90/10 unicast/broadcast workload.
	MixedConfig = traffic.MixedConfig
	// MixedResult reports a mixed-traffic run.
	MixedResult = traffic.MixedResult
	// DegradedConfig parameterises the fault-degraded CV study.
	DegradedConfig = metrics.DegradedConfig
	// DegradationStats aggregates a degraded study's coverage,
	// latency and drop outcomes.
	DegradationStats = metrics.DegradationStats
	// FaultPlan is a validated schedule of link/node fault events.
	FaultPlan = fault.Plan
)

// Parallel experiment orchestration.
type (
	// Pool is the deterministic worker pool experiments fan their
	// replications out on; see internal/runner.
	Pool = runner.Pool
	// Progress is a concurrency-safe completed-of-total counter for
	// live progress reporting.
	Progress = runner.Progress
)

// NewPool returns a pool running at most procs jobs concurrently;
// procs <= 0 means one worker per available core. Experiment output
// never depends on the worker count.
func NewPool(procs int) *Pool { return runner.New(procs) }

// NewProgress returns a counter expecting total completions that
// reports each one to fn (nil fn merely counts).
func NewProgress(total int, fn func(done, total int)) *Progress {
	return runner.NewProgress(total, fn)
}

// Substream returns the deterministic RNG for replication rep of the
// experiment seeded with seed — a pure function of (seed, rep), so
// any execution order (or worker count) reproduces the same stream.
func Substream(seed, rep uint64) *RNG { return sim.Substream(seed, rep) }

// RNG is the reproducible PCG generator driving all randomness.
type RNG = sim.RNG

// SingleSourceStudy runs reps uncontended broadcasts from random
// sources and aggregates latency and arrival-time CV, fanning the
// replications out across all cores; use SingleSourceStudyOn to
// bound the worker count. Output is identical either way.
func SingleSourceStudy(m *Mesh, algo Algorithm, cfg Config, length, reps int, seed uint64) (*SingleSourceStats, error) {
	return metrics.SingleSourceStudy(m, algo, cfg, length, reps, seed)
}

// SingleSourceStudyOn is SingleSourceStudy on the caller's pool.
func SingleSourceStudyOn(p *Pool, m *Mesh, algo Algorithm, cfg Config, length, reps int, seed uint64) (*SingleSourceStats, error) {
	return metrics.SingleSourceStudyOn(p, m, algo, cfg, length, reps, seed)
}

// ContendedCVStudy runs overlapping broadcasts from random sources on
// one shared network — the paper's §3.2 node-level study.
func ContendedCVStudy(m *Mesh, algo Algorithm, cfg ContendedConfig) (*SingleSourceStats, error) {
	return metrics.ContendedCVStudy(m, algo, cfg)
}

// DegradedStudy is ContendedCVStudy on a network running a fault
// plan: same traffic schedule at the same seed, plus coverage and
// drop accounting — the paired-twin comparison behind the fault
// figures (cmd/meshsim's -faults flag goes through here).
func DegradedStudy(m *Mesh, algo Algorithm, cfg DegradedConfig) (*DegradationStats, error) {
	return metrics.DegradedStudy(m, algo, cfg)
}

// RandomLinkFaults returns a deterministic plan failing the first k
// links of the seed-determined permutation of m's undirected links
// (both directions) at time at. Plans of the same (m, seed) nest.
func RandomLinkFaults(m *Mesh, seed uint64, k int, at Time) (*FaultPlan, error) {
	return fault.RandomLinks(m, seed, k, at)
}

// SaturationConfig returns the Fig. 2-style saturation workload the
// performance benchmarks (BenchmarkFig2Saturation and paperbench
// -benchjson) track the simulator's perf trajectory on.
func SaturationConfig(seed uint64) ContendedConfig { return metrics.SaturationConfig(seed) }

// SaturationDims is the mesh the saturation benchmark runs on.
func SaturationDims() []int { return metrics.SaturationDims() }

// RunMixed executes the §3.3 mixed unicast/broadcast workload.
func RunMixed(m *Mesh, cfg MixedConfig) (*MixedResult, error) {
	return traffic.RunMixed(m, cfg)
}

// RunMixedWith is RunMixed with a caller-supplied network
// configuration — the entry point when the workload needs a
// non-default store, virtual-channel count, or timing constants
// (cmd/meshsim's -store/-topo flags go through here).
func RunMixedWith(m *Mesh, ncfg Config, cfg MixedConfig) (*MixedResult, error) {
	return traffic.RunMixedWith(m, ncfg, cfg)
}

// Scenario API: one declarative spec, a registry of every experiment,
// and one run loop. This is how new code runs studies; the per-figure
// config types below are kept as deprecated wrappers.
type (
	// Scenario is the declarative spec of one experiment: topology,
	// algorithm set, workload, sweep axis, replication and
	// orchestration knobs.
	Scenario = scenario.Spec
	// ScenarioOption customises a registered scenario (WithMesh,
	// WithReps, …).
	ScenarioOption = scenario.Option
	// ScenarioResult carries a run's figure and, for contended runs
	// over the paper's four algorithms, the Table 1–2 projections.
	ScenarioResult = scenario.Result
	// ScenarioSink receives finished results (text, JSON, CSV).
	ScenarioSink = scenario.Sink
	// Workload selects a scenario's traffic pattern.
	Workload = scenario.Workload
	// Axis selects what a scenario sweeps.
	Axis = scenario.Axis
)

// NewScenario builds a registered scenario by name with the given
// options applied:
//
//	spec, err := wormsim.NewScenario("fig2", wormsim.WithMesh(16, 16, 8), wormsim.WithReps(40))
//	res, err := wormsim.Run(ctx, spec)
//
// Scenarios() lists the available names.
func NewScenario(name string, opts ...ScenarioOption) (Scenario, error) {
	return scenario.Build(name, opts...)
}

// Run executes a scenario spec: it fans the workload's independent
// simulations out over a worker pool (Spec.Procs, 0 = all cores),
// honours ctx cancellation, and aggregates in replication order, so
// output is bit-identical for any worker count.
func Run(ctx context.Context, spec Scenario) (*ScenarioResult, error) {
	return scenario.Run(ctx, spec)
}

// RunScenario is NewScenario followed by Run.
func RunScenario(ctx context.Context, name string, opts ...ScenarioOption) (*ScenarioResult, error) {
	spec, err := scenario.Build(name, opts...)
	if err != nil {
		return nil, err
	}
	return scenario.Run(ctx, spec)
}

// RunScenarioTo is RunScenario streaming the result into sinks.
func RunScenarioTo(ctx context.Context, name string, sinks []ScenarioSink, opts ...ScenarioOption) (*ScenarioResult, error) {
	spec, err := scenario.Build(name, opts...)
	if err != nil {
		return nil, err
	}
	return scenario.RunTo(ctx, spec, sinks...)
}

// Scenarios returns every registered scenario name, sorted. Register
// adds one.
func Scenarios() []string { return scenario.Names() }

// RegisterScenario adds a named scenario to the process-wide
// registry, making it runnable by name here and in cmd/sweep.
func RegisterScenario(name, summary string, spec func() Scenario) {
	scenario.Register(scenario.Definition{Name: name, Summary: summary, New: spec})
}

// Functional options for NewScenario.
var (
	// WithMesh fixes the scenario to one topology shape.
	WithMesh = scenario.WithMesh
	// WithSizes replaces a size-axis sweep's shapes.
	WithSizes = scenario.WithSizes
	// WithTopology selects "mesh" or "torus".
	WithTopology = scenario.WithTopology
	// WithVCs sets the virtual channels per physical channel
	// (<= 0 keeps the topology default: 1 on meshes, 2 on tori).
	WithVCs = scenario.WithVCs
	// WithAlgorithms replaces the algorithm set (RD, EDN, DB, AB).
	WithAlgorithms = scenario.WithAlgorithms
	// WithReps sets the replication count (<= 0 keeps the default).
	WithReps = scenario.WithReps
	// WithSeed sets the root random seed.
	WithSeed = scenario.WithSeed
	// WithProcs caps the worker count (0 = one per core).
	WithProcs = scenario.WithProcs
	// WithProgress wires a live (done, total) reporter.
	WithProgress = scenario.WithProgress
	// WithLength sets the message length in flits.
	WithLength = scenario.WithLength
	// WithTs sets the startup latency in µs.
	WithTs = scenario.WithTs
	// WithXs replaces the scalar sweep values of the spec's axis.
	WithXs = scenario.WithXs
	// WithLoads replaces a mixed scenario's offered-load sweep.
	WithLoads = scenario.WithLoads
	// WithLoadScale sets the mixed injected-rate multiplier.
	WithLoadScale = scenario.WithLoadScale
	// WithBatches configures the mixed batch-means estimator.
	WithBatches = scenario.WithBatches
	// WithInterarrival sets the contended mean injection gap in µs.
	WithInterarrival = scenario.WithInterarrival
	// WithMetric selects the contended y value ("cv", "latency", or —
	// under fault injection — "coverage" / "inflation").
	WithMetric = scenario.WithMetric
	// WithFaults fails n random undirected links in every cell of a
	// contended scenario (<= 0 keeps the registered fault plan).
	WithFaults = scenario.WithFaults
	// WithStore selects the substrate memory model: "auto" (default),
	// "dense", or "lazy" ("" keeps the registered mode).
	WithStore = scenario.WithStore
)

// FaultSpec declares a scenario's deterministic fault injection:
// failed links/nodes, onset and heal timings, churn waves, and the
// dead-ended worm grace period. See Scenario.Faults.
type FaultSpec = scenario.FaultSpec

// NewTextSink returns a sink rendering results in the paper's
// aligned-table layout.
var NewTextSink = scenario.NewTextSink

// NewJSONSink returns a sink emitting results as indented JSON.
var NewJSONSink = scenario.NewJSONSink

// NewCSVSink returns a sink writing the primary artifact as CSV.
var NewCSVSink = export.NewCSVSink

// Paper experiments.
type (
	// Figure is a reproduced paper figure.
	Figure = experiments.Figure
	// CVTable is a reproduced paper table (Tables 1 and 2).
	CVTable = experiments.CVTable
	// Fig1Config parameterises the Fig. 1 sweep.
	Fig1Config = experiments.Fig1Config
	// Fig2Config parameterises Fig. 2 and Tables 1–2.
	Fig2Config = experiments.Fig2Config
	// Fig34Config parameterises Figs. 3 and 4.
	Fig34Config = experiments.Fig34Config
)

// Fig1 reproduces Fig. 1 (latency vs network size).
//
// Deprecated: use RunScenario(ctx, "fig1", ...).
func Fig1(cfg Fig1Config) (*Figure, error) { return experiments.Fig1(cfg) }

// Fig1StartupLatency reproduces §3.1's Ts=0.15 µs sensitivity sweep.
//
// Deprecated: use RunScenario(ctx, "fig1b", ...).
func Fig1StartupLatency(cfg Fig1Config) (*Figure, error) {
	return experiments.Fig1StartupLatency(cfg)
}

// Fig2 reproduces Fig. 2 (arrival-time CV vs network size).
//
// Deprecated: use RunScenario(ctx, "fig2", ...).
func Fig2(cfg Fig2Config) (*Figure, error) { return experiments.Fig2(cfg) }

// Tables reproduces Tables 1 and 2 (CV and improvement percentages).
//
// Deprecated: use RunScenario(ctx, "fig2", ...); the result carries
// both tables.
func Tables(cfg Fig2Config) (*CVTable, *CVTable, error) { return experiments.Tables(cfg) }

// Fig2AndTables computes the shared (algorithm, mesh) study grid once
// and projects it into Fig. 2 and Tables 1–2.
//
// Deprecated: use RunScenario(ctx, "fig2", ...); every contended run
// carries the figure and both tables from one grid.
func Fig2AndTables(cfg Fig2Config) (*Figure, *CVTable, *CVTable, error) {
	return experiments.Fig2AndTables(cfg)
}

// Fig34 reproduces Fig. 3 (8×8×8) or Fig. 4 (16×16×8) mixed-traffic
// latency curves, selected by cfg.Dims.
//
// Deprecated: use RunScenario(ctx, "fig3" / "fig4", ...).
func Fig34(cfg Fig34Config) (*Figure, error) { return experiments.Fig34(cfg) }
