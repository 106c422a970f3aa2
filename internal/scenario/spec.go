package scenario

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Workload selects the traffic pattern a scenario simulates.
type Workload string

const (
	// Uncontended replicates single-source broadcasts on an idle
	// network (Fig. 1 and the ablations): the unit of parallelism is
	// one replication.
	Uncontended Workload = "uncontended"
	// Contended injects overlapping broadcasts with exponential
	// inter-arrival times into one shared network (Fig. 2, Tables
	// 1–2, the saturation sweeps): the unit of parallelism is one
	// (algorithm, x) study cell.
	Contended Workload = "contended"
	// Mixed is the §3.3 open-loop workload: every node generates
	// messages at exponential intervals, split between unicast and
	// broadcast (Figs. 3–4): the unit of parallelism is one
	// (algorithm, load) point.
	Mixed Workload = "mixed"
)

// Axis selects what a scenario sweeps — the meaning of the figure's
// x values.
type Axis string

const (
	// AxisSize sweeps over topology shapes (Spec.Sizes); x is the
	// node count.
	AxisSize Axis = "size"
	// AxisLength sweeps the message length in flits (Spec.Xs).
	AxisLength Axis = "length"
	// AxisHopDelay sweeps the per-hop header routing delay in µs.
	AxisHopDelay Axis = "hop-delay"
	// AxisPorts sweeps the router injection-port count.
	AxisPorts Axis = "ports"
	// AxisTs sweeps the startup latency in µs.
	AxisTs Axis = "ts"
	// AxisSubstrate compares routing substrates (Spec.Substrates);
	// x is the replication index and each substrate is a series.
	AxisSubstrate Axis = "substrate"
	// AxisLoad sweeps the per-node offered load in msg/ms (mixed
	// workload).
	AxisLoad Axis = "load"
	// AxisInterarrival sweeps the mean broadcast injection gap in µs
	// (contended workload).
	AxisInterarrival Axis = "interarrival"
	// AxisVCs sweeps the virtual-channel count per physical channel
	// (uncontended or contended workloads; primarily a torus study —
	// on meshes extra VCs only relieve head-of-line blocking).
	AxisVCs Axis = "vcs"
	// AxisFaults sweeps the number of failed undirected links
	// (contended workload); x is the failed-link count and the fault
	// sets nest along the axis — a larger x fails a strict superset
	// of a smaller x's links (see internal/fault.RandomLinks).
	AxisFaults Axis = "faults"
)

// Metric selects the y value a contended scenario reports.
type Metric string

const (
	// MetricCV reports the coefficient of variation of destination
	// arrival times — the paper's node-level metric.
	MetricCV Metric = "cv"
	// MetricLatency reports the mean broadcast latency.
	MetricLatency Metric = "latency"
	// MetricCoverage reports delivery coverage — the fraction of
	// destinations each broadcast reached. Only meaningful with fault
	// injection (it is identically 1 on a pristine network).
	MetricCoverage Metric = "coverage"
	// MetricInflation reports latency inflation: each faulted cell's
	// mean reached-destination latency over the pristine (x=0) cell's
	// of the same series. Faults axis only; the sweep must start at 0.
	MetricInflation Metric = "inflation"
)

// Artifact names the primary output of a scenario — what a CSV sink
// exports and what `sweep` prints.
type Artifact string

const (
	// ArtifactFigure is the scenario's figure (the default).
	ArtifactFigure Artifact = "figure"
	// ArtifactTable1 is the DB-improvement table projection of a
	// contended grid (paper Table 1).
	ArtifactTable1 Artifact = "table1"
	// ArtifactTable2 is the AB-improvement table projection (Table 2).
	ArtifactTable2 Artifact = "table2"
)

// Topology kinds a spec can name.
const (
	TopoMesh  = "mesh"
	TopoTorus = "torus"
)

// Unicast destination patterns of the mixed workload.
const (
	// PatternUniform is the paper's pattern: every unicast targets a
	// uniformly random destination (the default).
	PatternUniform = "uniform"
	// PatternHotspot sends a fraction of unicasts to one hotspot
	// node — the topology's center, node Nodes()/2 — and the rest
	// uniformly. The classic contended-memory-module pattern.
	PatternHotspot = "hotspot"
	// PatternTranspose sends every unicast to the source's coordinate
	// reversal — the matrix-transpose permutation; needs a
	// palindromic shape (see internal/traffic).
	PatternTranspose = "transpose"
	// PatternBitReversal sends node i's unicasts to the node indexed
	// by i's bit reversal — the FFT permutation.
	PatternBitReversal = "bit-reversal"
)

// Spec is the declarative description of one experiment scenario.
// The zero value plus a Workload is runnable: every unset knob
// defaults to the paper's value for that workload. Specs are plain
// data (Progress aside) — build them literally, through the
// [Registry], or with [Option]s via Build.
type Spec struct {
	// Name identifies the scenario (the registry key). Defaults to
	// the workload name for anonymous specs.
	Name string
	// ID is the figure/table heading, e.g. "Fig.1". Defaults to Name.
	ID string
	// Title, XLabel and YLabel override the derived figure headings;
	// empty means derive them from Workload and Axis exactly as the
	// legacy drivers did.
	Title, XLabel, YLabel string
	// Artifact is the primary output (figure by default). Contended
	// runs with the paper's four algorithms always compute Tables
	// 1–2 as well; table1/table2 merely select which one sinks emit.
	Artifact Artifact

	// Workload selects the traffic pattern (default Uncontended).
	Workload Workload
	// Axis selects the sweep (default AxisSize).
	Axis Axis
	// Topo is the topology kind: TopoMesh (default) or TopoTorus.
	Topo string
	// Topos, on the faults axis only, compares topology kinds side by
	// side: every (algorithm, kind) pair becomes one series under the
	// same fault plan family. nil means just Topo.
	Topos []string
	// Dims is the fixed topology shape for non-size axes (default
	// 8×8×8).
	Dims []int
	// Sizes lists the topology shapes of an AxisSize sweep; nil
	// means the paper's sizes for the workload.
	Sizes [][]int
	// Xs lists the sweep values for the scalar axes (length,
	// hop-delay, ports, ts, load, interarrival); nil means the
	// paper's values where the axis has one.
	Xs []float64

	// Algorithms names the broadcast algorithms to compare; nil
	// means the paper's four (RD, EDN, DB, AB) in its order.
	Algorithms []string
	// Substrates names the routing substrates of an AxisSubstrate
	// sweep; nil means west-first, odd-even, dor.
	Substrates []string

	// Length is the message length in flits (workload default: 100
	// uncontended, 64 contended, 32 mixed).
	Length int
	// Ts is the startup latency in µs (default 1.5).
	Ts float64
	// VCs is the virtual-channel count per physical channel. Zero
	// defaults to 1 on meshes (the paper's single-queue channel,
	// byte-identical to the pre-VC goldens) and 2 on tori (the
	// dateline pair that makes minimal routing deadlock-free there).
	VCs int
	// Metric is the contended y value (default MetricCV).
	Metric Metric
	// Store selects the substrate memory model: "" or "auto" (dense
	// below 2^16 nodes, lazy at and above — the default every golden
	// scenario resolves to dense), "dense", or "lazy". Lazy pairs a
	// paged allocate-on-first-contention network store with implicit
	// (table-free) topology adjacency; the two models are
	// observationally equivalent (see internal/network/store.go).
	Store string

	// Interarrival is the contended mean injection gap in µs
	// (default 5, Fig. 2's light overlapping load).
	Interarrival float64
	// Faults configures deterministic fault injection (faults.go).
	// nil leaves the fault machinery entirely unengaged. The empty
	// FaultSpec is valid on ANY workload and is a guaranteed no-op:
	// output stays byte-identical to a nil-Faults run. An active
	// fault set (links, nodes or churn strikes) needs the contended
	// workload.
	Faults *FaultSpec
	// PerNodeInterarrival, when set, overrides Interarrival with
	// PerNodeInterarrival/Nodes so the per-node broadcast rate is
	// constant across sizes.
	PerNodeInterarrival float64

	// LoadScale multiplies the mixed injected rate (default 320; see
	// Fig34Config in internal/experiments and EXPERIMENTS.md).
	LoadScale float64
	// BroadcastFraction is the mixed broadcast share (default 0.10).
	BroadcastFraction float64
	// Pattern selects the mixed unicast destination distribution:
	// "" or PatternUniform (the paper's uniform random destinations)
	// or PatternHotspot.
	Pattern string
	// HotspotFraction is the probability a unicast targets the
	// hotspot node under PatternHotspot (default 0.1). Ignored — and
	// rejected if set — under the uniform pattern.
	HotspotFraction float64
	// BatchSize, Batches, Warmup configure the mixed batch-means
	// estimator (default 100×21, first discarded).
	BatchSize, Batches, Warmup int
	// MaxTime bounds each mixed run in simulated µs (0 = driver
	// default).
	MaxTime sim.Time
	// MaxInjected bounds the injected messages per mixed run (0 =
	// 10× the measured window, 3× on meshes above 1024 nodes).
	MaxInjected int

	// Reps is the replication count: replications per point
	// (uncontended), measured broadcasts per study (contended).
	// Default 40; the ablations register 10.
	Reps int
	// Seed drives all randomness; replication i of any cell draws
	// from sim.Substream(Seed, i), so output is independent of Procs.
	Seed uint64
	// Procs caps the worker count; 0 means one worker per core.
	Procs int
	// Progress, when non-nil, receives (done, total) completed-job
	// counts as the run advances. Calls are serialised.
	Progress func(done, total int)
}

// Option mutates a Spec; the facade's functional options (WithMesh,
// WithReps, …) and Build compose them over a registered base spec.
type Option func(*Spec)

// applyDefaults fills every unset knob with the workload's paper
// default, returning the resolved copy Run executes.
func (s Spec) applyDefaults() Spec {
	if s.Workload == "" {
		s.Workload = Uncontended
	}
	if s.Axis == "" {
		if s.Workload == Mixed {
			s.Axis = AxisLoad
		} else {
			s.Axis = AxisSize
		}
	}
	if s.Name == "" {
		s.Name = string(s.Workload)
	}
	if s.ID == "" {
		s.ID = s.Name
	}
	if s.Artifact == "" {
		s.Artifact = ArtifactFigure
	}
	if s.Topo == "" {
		s.Topo = TopoMesh
	}
	if s.Algorithms == nil {
		s.Algorithms = []string{"RD", "EDN", "DB", "AB"}
	}
	if s.Axis == AxisSubstrate && s.Substrates == nil {
		s.Substrates = []string{"west-first", "odd-even", "dor"}
	}
	if s.Ts == 0 {
		s.Ts = 1.5
	}
	if s.VCs == 0 && len(s.Topos) == 0 {
		// A multi-kind faults sweep resolves VCs per series instead
		// (vcsFor), so a mesh/torus comparison gets each kind's default.
		if s.Topo == TopoTorus {
			s.VCs = 2
		} else {
			s.VCs = 1
		}
	}
	if s.Metric == "" {
		if s.Axis == AxisFaults {
			s.Metric = MetricCoverage
		} else {
			s.Metric = MetricCV
		}
	}
	if s.Axis == AxisFaults {
		if s.Xs == nil {
			s.Xs = []float64{0, 4, 8, 16, 32, 64}
		}
		if s.Faults == nil {
			s.Faults = &FaultSpec{}
		}
	}
	if s.Length == 0 {
		switch s.Workload {
		case Contended:
			s.Length = 64
		case Mixed:
			s.Length = 32
		default:
			s.Length = 100
		}
	}
	if s.Reps == 0 {
		s.Reps = 40
	}
	if s.Axis == AxisSize && s.Sizes == nil {
		switch s.Workload {
		case Contended:
			s.Sizes = [][]int{{4, 4, 4}, {4, 4, 16}, {8, 8, 8}, {8, 8, 16}}
		default:
			s.Sizes = [][]int{{4, 4, 4}, {8, 8, 8}, {10, 10, 10}, {16, 16, 16}}
		}
	}
	if s.Axis != AxisSize && s.Dims == nil {
		s.Dims = []int{8, 8, 8}
	}
	if s.Workload == Contended && s.Interarrival == 0 {
		s.Interarrival = 5
	}
	if s.Workload == Mixed {
		if s.Axis == AxisLoad && s.Xs == nil {
			s.Xs = []float64{0.005, 0.006, 0.01, 0.02, 0.025, 0.03, 0.05}
		}
		if s.LoadScale == 0 {
			s.LoadScale = 320
		}
		if s.BroadcastFraction == 0 {
			s.BroadcastFraction = 0.10
		}
		if s.Pattern == "" {
			s.Pattern = PatternUniform
		}
		if s.Pattern == PatternHotspot && s.HotspotFraction == 0 {
			s.HotspotFraction = 0.1
		}
		if s.BatchSize == 0 {
			s.BatchSize = 100
		}
		if s.Batches == 0 {
			s.Batches = 21
			s.Warmup = 1
		}
	}
	return s
}

// validate rejects specs Run cannot execute. It runs after
// applyDefaults, so only genuinely contradictory specs fail.
func (s *Spec) validate() error {
	switch s.Workload {
	case Uncontended, Contended, Mixed:
	default:
		return fmt.Errorf("scenario %s: unknown workload %q", s.Name, s.Workload)
	}
	valid := map[Workload][]Axis{
		Uncontended: {AxisSize, AxisLength, AxisHopDelay, AxisPorts, AxisTs, AxisSubstrate, AxisVCs},
		Contended:   {AxisSize, AxisInterarrival, AxisVCs, AxisFaults},
		Mixed:       {AxisLoad},
	}
	ok := false
	for _, a := range valid[s.Workload] {
		if a == s.Axis {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("scenario %s: axis %q is not valid for the %s workload", s.Name, s.Axis, s.Workload)
	}
	if s.Topo != TopoMesh && s.Topo != TopoTorus {
		return fmt.Errorf("scenario %s: unknown topology kind %q", s.Name, s.Topo)
	}
	if s.Dims != nil {
		if err := checkShape("Dims", s.Dims); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	if s.Axis == AxisSize {
		for i, dims := range s.Sizes {
			if err := checkShape(fmt.Sprintf("Sizes[%d]", i), dims); err != nil {
				return fmt.Errorf("scenario %s: %w", s.Name, err)
			}
		}
	}
	switch s.Store {
	case "", "auto", "dense", "lazy":
	default:
		return fmt.Errorf("scenario %s: unknown store mode %q (want auto, dense or lazy)", s.Name, s.Store)
	}
	switch s.Pattern {
	case "", PatternUniform:
		if s.HotspotFraction != 0 {
			return fmt.Errorf("scenario %s: hotspot fraction %g needs the %s pattern", s.Name, s.HotspotFraction, PatternHotspot)
		}
	case PatternHotspot:
		if s.Workload != Mixed {
			return fmt.Errorf("scenario %s: pattern %q needs the mixed workload", s.Name, s.Pattern)
		}
		if s.HotspotFraction < 0 || s.HotspotFraction > 1 {
			return fmt.Errorf("scenario %s: hotspot fraction %g outside [0,1]", s.Name, s.HotspotFraction)
		}
	case PatternTranspose, PatternBitReversal:
		if s.Workload != Mixed {
			return fmt.Errorf("scenario %s: pattern %q needs the mixed workload", s.Name, s.Pattern)
		}
		if s.HotspotFraction != 0 {
			return fmt.Errorf("scenario %s: pattern %q cannot combine with a hotspot fraction", s.Name, s.Pattern)
		}
	default:
		return fmt.Errorf("scenario %s: unknown pattern %q (want %s, %s, %s or %s)",
			s.Name, s.Pattern, PatternUniform, PatternHotspot, PatternTranspose, PatternBitReversal)
	}
	if s.Axis == AxisSize {
		if len(s.Sizes) == 0 {
			return fmt.Errorf("scenario %s: size axis with no sizes", s.Name)
		}
	} else if len(s.Xs) == 0 && s.Axis != AxisSubstrate {
		return fmt.Errorf("scenario %s: axis %q with no sweep values", s.Name, s.Axis)
	}
	if s.Axis == AxisVCs {
		// The run loop truncates x to an int and the network treats 0
		// as 1, so a fractional or sub-1 sweep value would emit a
		// point labeled with a VC count it never ran.
		for _, x := range s.Xs {
			if x < 1 || x != float64(int(x)) {
				return fmt.Errorf("scenario %s: VC sweep value %g is not an integer >= 1", s.Name, x)
			}
		}
	}
	if s.Axis == AxisFaults {
		// The run loop truncates x to a failed-link count.
		for _, x := range s.Xs {
			if x < 0 || x != float64(int(x)) {
				return fmt.Errorf("scenario %s: failed-link sweep value %g is not an integer >= 0", s.Name, x)
			}
		}
		for _, kind := range s.Topos {
			if kind != TopoMesh && kind != TopoTorus {
				return fmt.Errorf("scenario %s: unknown topology kind %q in Topos", s.Name, kind)
			}
		}
		if len(s.Substrates) > 0 {
			if len(s.Algorithms) != 1 {
				return fmt.Errorf("scenario %s: a substrate comparison under faults needs ONE algorithm, got %v",
					s.Name, s.Algorithms)
			}
			if len(s.Topos) > 1 {
				return fmt.Errorf("scenario %s: Substrates and multiple Topos cannot combine", s.Name)
			}
			for _, sub := range s.Substrates {
				switch sub {
				case "west-first", "odd-even", "dor", "dateline-dor":
				default:
					return fmt.Errorf("scenario %s: unknown substrate %q", s.Name, sub)
				}
			}
		}
	} else if len(s.Topos) > 0 {
		return fmt.Errorf("scenario %s: Topos is only valid on the faults axis", s.Name)
	}
	switch s.Metric {
	case MetricCV, MetricLatency:
	case MetricCoverage:
		if s.Axis != AxisFaults && !s.Faults.active() {
			return fmt.Errorf("scenario %s: metric %q needs fault injection", s.Name, s.Metric)
		}
	case MetricInflation:
		if s.Axis != AxisFaults {
			return fmt.Errorf("scenario %s: metric %q needs the faults axis", s.Name, s.Metric)
		}
		if len(s.Xs) == 0 || s.Xs[0] != 0 {
			return fmt.Errorf("scenario %s: the inflation metric needs x=0 (its pristine twin) as the first sweep value", s.Name)
		}
	default:
		return fmt.Errorf("scenario %s: unknown metric %q", s.Name, s.Metric)
	}
	if f := s.Faults; f != nil {
		if f.Links < 0 || f.Nodes < 0 || f.Strikes < 0 {
			return fmt.Errorf("scenario %s: negative fault count (links %d, nodes %d, strikes %d)",
				s.Name, f.Links, f.Nodes, f.Strikes)
		}
		if f.At < 0 || f.UpAfter < 0 || f.Period < 0 || f.Wait < 0 {
			return fmt.Errorf("scenario %s: negative fault timing", s.Name)
		}
		if f.Strikes > 0 && (f.UpAfter <= 0 || f.Period <= 0) {
			return fmt.Errorf("scenario %s: churn (Strikes=%d) needs positive UpAfter and Period", s.Name, f.Strikes)
		}
		if (f.active() || s.Axis == AxisFaults) && s.Workload != Contended {
			return fmt.Errorf("scenario %s: fault injection needs the contended workload", s.Name)
		}
	}
	if (s.Faults.active() || s.Axis == AxisFaults) && s.Artifact != ArtifactFigure {
		return fmt.Errorf("scenario %s: artifact %q cannot combine with fault injection (tables assume full delivery)",
			s.Name, s.Artifact)
	}
	if len(s.Algorithms) == 0 {
		return fmt.Errorf("scenario %s: no algorithms", s.Name)
	}
	if _, err := algorithmsFor(s.Algorithms); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if s.Axis == AxisSubstrate {
		if len(s.Algorithms) != 1 {
			return fmt.Errorf("scenario %s: the substrate axis compares substrates under ONE algorithm, got %v",
				s.Name, s.Algorithms)
		}
		for _, sub := range s.Substrates {
			switch sub {
			case "west-first", "odd-even", "dor", "dateline-dor":
			default:
				return fmt.Errorf("scenario %s: unknown substrate %q", s.Name, sub)
			}
		}
	}
	if s.Reps <= 0 {
		return fmt.Errorf("scenario %s: non-positive replication count %d", s.Name, s.Reps)
	}
	switch s.Artifact {
	case ArtifactFigure:
	case ArtifactTable1, ArtifactTable2:
		if s.Workload != Contended {
			return fmt.Errorf("scenario %s: artifact %q needs the contended workload", s.Name, s.Artifact)
		}
		// The table projections compare the paper's proposed
		// algorithms against its baselines; without all four the run
		// would produce no tables and the artifact would be empty.
		have := map[string]bool{}
		for _, a := range s.Algorithms {
			have[a] = true
		}
		for _, need := range []string{"RD", "EDN", "DB", "AB"} {
			if !have[need] {
				return fmt.Errorf("scenario %s: artifact %q needs algorithms RD, EDN, DB and AB, got %v",
					s.Name, s.Artifact, s.Algorithms)
			}
		}
	default:
		return fmt.Errorf("scenario %s: unknown artifact %q", s.Name, s.Artifact)
	}
	return nil
}

// checkShape rejects a topology shape the topology layer would panic
// on: no dimensions, or an extent below 1. field names the spec field
// the shape came from.
func checkShape(field string, dims []int) error {
	if len(dims) == 0 {
		return fmt.Errorf("%s has no dimensions", field)
	}
	for d, k := range dims {
		if k < 1 {
			return fmt.Errorf("%s dimension %d has extent %d (want >= 1)", field, d, k)
		}
	}
	return nil
}

// storeMode resolves the spec's Store knob to the network layer's
// mode.
func (s *Spec) storeMode() network.StoreMode {
	switch s.Store {
	case "dense":
		return network.StoreDense
	case "lazy":
		return network.StoreLazy
	}
	return network.StoreAuto
}

// buildTopo constructs the topology for one set of dims. A shape the
// store mode resolves to lazy gets implicit (on-demand) adjacency —
// same IDs, channels, routes and neighbor order as the dense table,
// without the O(nodes) construction.
func (s *Spec) buildTopo(dims []int) *topology.Mesh {
	n := 1
	for _, k := range dims {
		n *= k
	}
	implicit := s.storeMode().LazyFor(n)
	if s.Topo == TopoTorus {
		if implicit {
			return topology.NewTorusImplicit(dims...)
		}
		return topology.NewTorus(dims...)
	}
	if implicit {
		return topology.NewMeshImplicit(dims...)
	}
	return topology.NewMesh(dims...)
}

// headings derives the legacy title and axis labels for the resolved
// spec on topology m (the fixed topology, or nil for size sweeps),
// honouring explicit overrides. The derived strings are byte-for-byte
// the ones the pre-redesign drivers printed.
func (s *Spec) headings(m *topology.Mesh) (title, xlabel, ylabel string) {
	title, xlabel, ylabel = s.Title, s.XLabel, s.YLabel
	name := ""
	if m != nil {
		name = m.Name()
	}
	var dTitle, dX, dY string
	switch s.Workload {
	case Uncontended:
		dY = "latency (µs)"
		switch s.Axis {
		case AxisSize:
			dTitle = fmt.Sprintf("Broadcast latency vs network size (L=%d flits, Ts=%g µs)", s.Length, s.Ts)
			dX = "nodes"
		case AxisLength:
			dTitle = fmt.Sprintf("Broadcast latency vs message length on %s", name)
			dX = "flits"
		case AxisHopDelay:
			dTitle = fmt.Sprintf("Broadcast latency vs header hop delay on %s (L=%d)", name, s.Length)
			dX = "hop delay (µs)"
		case AxisPorts:
			dTitle = fmt.Sprintf("Broadcast latency vs injection ports on %s (L=%d)", name, s.Length)
			dX = "ports"
		case AxisTs:
			dTitle = fmt.Sprintf("Broadcast latency vs startup latency on %s (L=%d)", name, s.Length)
			dX = "Ts (µs)"
		case AxisSubstrate:
			dTitle = fmt.Sprintf("%s latency by routing substrate on %s (L=%d)", s.Algorithms[0], name, s.Length)
			dX = "replication"
		case AxisVCs:
			dTitle = fmt.Sprintf("Broadcast latency vs virtual channels on %s (L=%d)", name, s.Length)
			dX = "virtual channels"
		}
	case Contended:
		switch s.Metric {
		case MetricLatency:
			dY = "latency (µs)"
		case MetricCoverage:
			dY = "coverage"
		case MetricInflation:
			dY = "latency inflation"
		default:
			dY = "CV"
		}
		switch s.Axis {
		case AxisSize:
			if s.Metric == MetricLatency {
				dTitle = fmt.Sprintf("Mean broadcast latency vs network size (L=%d, Ts=%g µs)", s.Length, s.Ts)
			} else {
				dTitle = fmt.Sprintf("Coefficient of variation of arrival times vs network size (L=%d, Ts=%g µs)", s.Length, s.Ts)
			}
			dX = "nodes"
		case AxisInterarrival:
			dTitle = fmt.Sprintf("Broadcast performance vs injection gap on %s (L=%d, Ts=%g µs)", name, s.Length, s.Ts)
			dX = "interarrival (µs)"
		case AxisVCs:
			dTitle = fmt.Sprintf("Broadcast performance vs virtual channels on %s (L=%d, Ts=%g µs)", name, s.Length, s.Ts)
			dX = "virtual channels"
		case AxisFaults:
			where := name
			if where == "" {
				where = "degraded networks"
			}
			dTitle = fmt.Sprintf("Broadcast degradation vs failed links on %s (L=%d, Ts=%g µs)", where, s.Length, s.Ts)
			dX = "failed links"
		}
	case Mixed:
		dTitle = fmt.Sprintf("Mean latency vs traffic load on %s (L=%d flits, %g%% unicast / %g%% broadcast)",
			name, s.Length, 100*(1-s.BroadcastFraction), 100*s.BroadcastFraction)
		switch s.Pattern {
		case PatternHotspot:
			dTitle = fmt.Sprintf("Mean latency vs traffic load on %s (L=%d flits, %g%% unicast / %g%% broadcast, %g%% hotspot)",
				name, s.Length, 100*(1-s.BroadcastFraction), 100*s.BroadcastFraction, 100*s.HotspotFraction)
		case PatternTranspose, PatternBitReversal:
			dTitle = fmt.Sprintf("Mean latency vs traffic load on %s (L=%d flits, %g%% unicast / %g%% broadcast, %s unicast)",
				name, s.Length, 100*(1-s.BroadcastFraction), 100*s.BroadcastFraction, s.Pattern)
		}
		dX = "load (msg/ms)"
		dY = "latency (µs)"
	}
	if title == "" {
		title = dTitle
	}
	if xlabel == "" {
		xlabel = dX
	}
	if ylabel == "" {
		ylabel = dY
	}
	return title, xlabel, ylabel
}
