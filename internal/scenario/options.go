package scenario

// Functional options for Build and the wormsim facade: each mutates
// one knob of a registered base spec, so callers compose exactly the
// overrides they need —
//
//	spec, err := scenario.Build("fig2", scenario.WithMesh(16, 16, 8), scenario.WithReps(40))

// WithMesh fixes the scenario to one topology shape: it sets the
// fixed Dims and collapses a size sweep to the single shape.
func WithMesh(dims ...int) Option {
	return func(s *Spec) {
		s.Dims = dims
		if s.Axis == AxisSize {
			s.Sizes = [][]int{dims}
		}
	}
}

// WithSizes replaces the size-axis sweep shapes.
func WithSizes(sizes ...[]int) Option {
	return func(s *Spec) { s.Sizes = sizes }
}

// WithTopology selects the topology kind: TopoMesh or TopoTorus.
func WithTopology(kind string) Option {
	return func(s *Spec) { s.Topo = kind }
}

// WithVCs sets the virtual-channel count per physical channel
// (n <= 0 keeps the topology default: 1 on meshes, 2 on tori).
func WithVCs(n int) Option {
	return func(s *Spec) {
		if n > 0 {
			s.VCs = n
		}
	}
}

// WithAlgorithms replaces the algorithm set (names RD, EDN, DB, AB).
func WithAlgorithms(names ...string) Option {
	return func(s *Spec) { s.Algorithms = names }
}

// WithReps sets the replication count; n <= 0 keeps the scenario's
// default, so CLI "0 = default" flags can pass through unchanged.
func WithReps(n int) Option {
	return func(s *Spec) {
		if n > 0 {
			s.Reps = n
		}
	}
}

// WithSeed sets the root random seed.
func WithSeed(seed uint64) Option {
	return func(s *Spec) { s.Seed = seed }
}

// WithProcs caps the worker count (0 = one worker per core). Output
// never depends on it.
func WithProcs(procs int) Option {
	return func(s *Spec) { s.Procs = procs }
}

// WithProgress wires a live (done, total) completion reporter.
func WithProgress(fn func(done, total int)) Option {
	return func(s *Spec) { s.Progress = fn }
}

// WithLength sets the message length in flits.
func WithLength(flits int) Option {
	return func(s *Spec) { s.Length = flits }
}

// WithTs sets the startup latency in µs.
func WithTs(ts float64) Option {
	return func(s *Spec) { s.Ts = ts }
}

// WithXs replaces the scalar sweep values of the spec's axis
// (lengths, hop delays, ports, Ts values, loads, injection gaps).
func WithXs(xs ...float64) Option {
	return func(s *Spec) { s.Xs = xs }
}

// WithLoads replaces the offered-load sweep of a mixed scenario —
// WithXs under the name the paper's axis uses.
func WithLoads(loads ...float64) Option { return WithXs(loads...) }

// WithLoadScale sets the mixed-traffic injected-rate multiplier
// (1 = the paper's literal axis values; default 320, see
// EXPERIMENTS.md).
func WithLoadScale(scale float64) Option {
	return func(s *Spec) { s.LoadScale = scale }
}

// WithBatches configures the mixed batch-means estimator.
func WithBatches(batches, batchSize, warmup int) Option {
	return func(s *Spec) {
		s.Batches, s.BatchSize, s.Warmup = batches, batchSize, warmup
	}
}

// WithInterarrival sets the contended mean injection gap in µs.
func WithInterarrival(gap float64) Option {
	return func(s *Spec) { s.Interarrival = gap }
}

// WithMetric selects the contended y value (MetricCV, MetricLatency,
// or — under fault injection — MetricCoverage / MetricInflation).
func WithMetric(m Metric) Option {
	return func(s *Spec) { s.Metric = m }
}

// WithStore selects the substrate memory model: "auto" (default),
// "dense", or "lazy". Empty keeps the scenario's registered mode.
func WithStore(mode string) Option {
	return func(s *Spec) {
		if mode != "" {
			s.Store = mode
		}
	}
}

// WithHotspot switches a mixed scenario's unicast background to the
// hotspot pattern: fraction of the unicasts target the topology's
// center node (fraction <= 0 keeps the registered pattern; the
// registered hotspot scenarios default to 0.1).
func WithHotspot(fraction float64) Option {
	return func(s *Spec) {
		if fraction <= 0 {
			return
		}
		s.Pattern = PatternHotspot
		s.HotspotFraction = fraction
	}
}

// WithFaults fails n random undirected links in every cell of a
// contended scenario (n <= 0 keeps the scenario's registered fault
// plan, typically none). On the faults axis the sweep value supplies
// the count instead, so this option is a no-op there.
func WithFaults(links int) Option {
	return func(s *Spec) {
		if links <= 0 {
			return
		}
		if s.Faults == nil {
			s.Faults = &FaultSpec{}
		}
		s.Faults.Links = links
	}
}
