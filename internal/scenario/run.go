package scenario

import (
	"context"
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Result is what running a scenario produces. Figure is always set;
// Table1 and Table2 are set for contended runs whose algorithm set
// contains the paper's four (they are free projections of the same
// study grid, so they are always computed together — running the
// "fig2", "table1" and "table2" scenarios costs one grid, not three).
type Result struct {
	// Spec is the fully resolved spec the run executed — every
	// default filled in.
	Spec   Spec
	Figure *Figure
	// Table1 is the DB-improvement projection (paper Table 1).
	Table1 *CVTable
	// Table2 is the AB-improvement projection (paper Table 2).
	Table2 *CVTable
}

// Primary returns the artifact the spec selects: one of the tables
// for table1/table2 specs, the figure otherwise.
func (r *Result) Primary() interface{ Format() string } {
	switch r.Spec.Artifact {
	case ArtifactTable1:
		return r.Table1
	case ArtifactTable2:
		return r.Table2
	default:
		return r.Figure
	}
}

// PaperAlgorithms returns the four algorithms in the paper's
// presentation order.
func PaperAlgorithms() []broadcast.Algorithm {
	return []broadcast.Algorithm{
		broadcast.NewRD(),
		broadcast.NewEDN(),
		broadcast.NewDB(),
		broadcast.NewAB(),
	}
}

// algorithmsFor resolves algorithm names to planners.
func algorithmsFor(names []string) ([]broadcast.Algorithm, error) {
	algos := make([]broadcast.Algorithm, 0, len(names))
	for _, name := range names {
		switch name {
		case "RD":
			algos = append(algos, broadcast.NewRD())
		case "EDN":
			algos = append(algos, broadcast.NewEDN())
		case "DB":
			algos = append(algos, broadcast.NewDB())
		case "AB":
			algos = append(algos, broadcast.NewAB())
		default:
			return nil, fmt.Errorf("unknown algorithm %q (want RD, EDN, DB or AB)", name)
		}
	}
	return algos, nil
}

// substrateFor resolves a substrate name to a routing selector on m
// (nil for deterministic dimension-order). The turn-model names
// resolve to their torus-capable variants on a wrapped mesh, so the
// substrate ablation runs on either topology kind.
func substrateFor(name string, m *topology.Mesh) routing.Selector {
	switch name {
	case "west-first":
		return routing.WestFirstFor(m)
	case "odd-even":
		return routing.OddEvenFor(m)
	case "dateline-dor":
		return routing.NewDatelineDOR(m)
	default: // "dor": Execute's default path
		return nil
	}
}

// Run executes one scenario: it resolves the spec's defaults, fans
// the workload's independent simulations out over a runner.Pool, and
// aggregates the results into a Figure (and, for contended runs over
// the paper's algorithms, Tables 1–2) in replication order — so the
// output is bit-identical for any Procs value, and byte-identical to
// the legacy per-figure drivers this run loop replaced.
//
// Cancelling ctx stops the dispatch of new simulations and drains
// in-flight workers; Run then returns ctx.Err().
func Run(ctx context.Context, spec Spec) (*Result, error) {
	rs := spec.applyDefaults()
	if err := rs.validate(); err != nil {
		return nil, err
	}
	algos, err := algorithmsFor(rs.Algorithms)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", rs.Name, err)
	}
	res := &Result{Spec: rs}
	switch rs.Workload {
	case Contended:
		switch {
		case rs.Axis == AxisFaults:
			err = runFaults(ctx, &rs, algos, res)
		case rs.Faults.active():
			err = runContendedFaulted(ctx, &rs, algos, res)
		default:
			err = runContended(ctx, &rs, algos, res)
		}
	case Mixed:
		err = runMixed(ctx, &rs, algos, res)
	default:
		if rs.Axis == AxisSubstrate {
			err = runSubstrate(ctx, &rs, algos[0], res)
		} else {
			err = runUncontended(ctx, &rs, algos, res)
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// pool builds the worker pool for one run: Procs workers (0 = one per
// core) ticking a live progress counter expecting total completions.
func (s *Spec) pool(total int) *runner.Pool {
	return runner.New(s.Procs).NotifyEach(runner.NewProgress(total, s.Progress).Tick)
}

// netConfig returns the paper's network constants with the spec's
// startup latency and virtual-channel count.
func (s *Spec) netConfig() network.Config {
	cfg := network.DefaultConfig()
	cfg.Ts = s.Ts
	cfg.VCs = s.VCs
	cfg.Store = s.storeMode()
	return cfg
}

// source returns the replication's broadcast source, a pure function
// of (Seed, rep) so any execution order reproduces it.
func (s *Spec) source(m *topology.Mesh, rep int) topology.NodeID {
	return topology.NodeID(sim.Substream(s.Seed, uint64(rep)).Intn(m.Nodes()))
}

// sweepCells resolves the sweep into (topology, x) cells: one mesh
// per size on the size axis, the fixed topology with scalar xs
// otherwise. fixed is non-nil only for non-size axes.
func (s *Spec) sweepCells() (topos []*topology.Mesh, xs []float64, fixed *topology.Mesh) {
	if s.Axis == AxisSize {
		topos = make([]*topology.Mesh, len(s.Sizes))
		xs = make([]float64, len(s.Sizes))
		for i, dims := range s.Sizes {
			topos[i] = s.buildTopo(dims)
			xs[i] = float64(topos[i].Nodes())
		}
		return topos, xs, nil
	}
	fixed = s.buildTopo(s.Dims)
	xs = s.Xs
	topos = make([]*topology.Mesh, len(xs))
	for i := range topos {
		topos[i] = fixed
	}
	return topos, xs, fixed
}

// runUncontended executes the replicated single-source workload: the
// FULL algos×xs×reps index space is submitted to the pool as one map,
// so parallelism is never capped by a single cell's replication count
// and there is no barrier between cells. Replication i of every cell
// draws its source from sim.Substream(Seed, i) and aggregation runs
// in replication order.
func runUncontended(ctx context.Context, s *Spec, algos []broadcast.Algorithm, res *Result) error {
	topos, xs, fixed := s.sweepCells()
	title, xl, yl := s.headings(fixed)
	fig := &Figure{ID: s.ID, Title: title, XLabel: xl, YLabel: yl}

	reps := s.Reps
	jobs := len(algos) * len(xs) * reps
	p := s.pool(jobs)
	lats, err := runner.MapCtx(ctx, p, jobs, func(k int) (float64, error) {
		algo := algos[k/(len(xs)*reps)]
		xi := (k / reps) % len(xs)
		m := topos[xi]
		src := s.source(m, k%reps)
		lat, err := s.runOneBroadcast(m, algo, src, xs[xi])
		if err != nil {
			return 0, fmt.Errorf("%s %s on %s at x=%g: %w", s.Name, algo.Name(), m.Name(), xs[xi], err)
		}
		return lat, nil
	})
	if err != nil {
		return err
	}
	for a, algo := range algos {
		series := Series{Label: algo.Name()}
		for xi, x := range xs {
			var acc stats.Accumulator
			base := (a*len(xs) + xi) * reps
			for i := 0; i < reps; i++ {
				acc.Add(lats[base+i])
			}
			series.Points = append(series.Points, Point{X: x, Y: acc.Mean(), CI: acc.Confidence95()})
		}
		fig.Series = append(fig.Series, series)
	}
	res.Figure = fig
	return nil
}

// runOneBroadcast executes one uncontended replication with the
// spec's axis applied. The ports axis bypasses RunSingle because
// RunSingle pins the port count to the algorithm's own model.
func (s *Spec) runOneBroadcast(m *topology.Mesh, algo broadcast.Algorithm, src topology.NodeID, x float64) (float64, error) {
	ncfg := s.netConfig()
	length := s.Length
	switch s.Axis {
	case AxisLength:
		length = int(x)
	case AxisHopDelay:
		ncfg.HopDelay = x
	case AxisTs:
		ncfg.Ts = x
	case AxisVCs:
		ncfg.VCs = int(x)
	case AxisPorts:
		// The ports axis overrides the router model RunSingle would
		// pin to the algorithm, so it plans and executes explicitly —
		// with the paper's west-first substrate under AB.
		ncfg.Ports = int(x)
		var adaptive routing.Selector
		if algo.Name() == "AB" {
			adaptive = routing.WestFirstFor(m)
		}
		return executePlanned(m, algo, src, ncfg, length, adaptive)
	}
	r, err := broadcast.RunSingle(m, algo, src, ncfg, length)
	if err != nil {
		return 0, err
	}
	return r.Latency(), nil
}

// executePlanned plans and executes one broadcast on a fresh network
// without RunSingle's config rewriting; the selector — nil (plain
// DOR) included — is used as-is.
func executePlanned(m *topology.Mesh, algo broadcast.Algorithm, src topology.NodeID,
	ncfg network.Config, length int, adaptive routing.Selector) (float64, error) {
	plan, err := algo.Plan(m, src)
	if err != nil {
		return 0, err
	}
	if err := plan.Validate(m); err != nil {
		return 0, err
	}
	sm := sim.New()
	net, err := network.New(sm, m, ncfg)
	if err != nil {
		return 0, err
	}
	r, err := broadcast.Execute(net, plan, broadcast.Options{
		Length:   length,
		Adaptive: adaptive,
		Tag:      "scenario",
	})
	if err != nil {
		return 0, err
	}
	sm.Run()
	if !r.Done {
		return 0, fmt.Errorf("broadcast stalled with %d/%d informed", r.Informed, m.Nodes())
	}
	return r.Latency(), nil
}

// runSubstrate executes the substrate-comparison sweep: one series
// per routing substrate, x the replication index, all substrates
// replaying the same Substream-derived source sequence so the
// comparison is paired.
func runSubstrate(ctx context.Context, s *Spec, algo broadcast.Algorithm, res *Result) error {
	m := s.buildTopo(s.Dims)
	title, xl, yl := s.headings(m)
	fig := &Figure{ID: s.ID, Title: title, XLabel: xl, YLabel: yl}

	reps := s.Reps
	jobs := len(s.Substrates) * reps
	p := s.pool(jobs)
	lats, err := runner.MapCtx(ctx, p, jobs, func(k int) (float64, error) {
		sub, rep := s.Substrates[k/reps], k%reps
		lat, err := executePlanned(m, algo, s.source(m, rep), s.netConfig(), s.Length, substrateFor(sub, m))
		if err != nil {
			return 0, fmt.Errorf("%s %s: %w", s.Name, sub, err)
		}
		return lat, nil
	})
	if err != nil {
		return err
	}
	for si, sub := range s.Substrates {
		series := Series{Label: sub}
		for i := 0; i < reps; i++ {
			series.Points = append(series.Points, Point{X: float64(i), Y: lats[si*reps+i]})
		}
		fig.Series = append(fig.Series, series)
	}
	res.Figure = fig
	return nil
}

// runContended executes the shared-network CV/latency study grid: one
// (algorithm, x) cell is a single discrete-event simulation, so the
// cell — not the replication — is the unit of parallelism. The grid
// always projects into the figure; when the algorithm set carries the
// paper's four, it also projects into Tables 1–2.
func runContended(ctx context.Context, s *Spec, algos []broadcast.Algorithm, res *Result) error {
	topos, xs, fixed := s.sweepCells()
	title, xl, yl := s.headings(fixed)
	fig := &Figure{ID: s.ID, Title: title, XLabel: xl, YLabel: yl}

	cells := len(algos) * len(xs)
	p := s.pool(cells)
	grid, err := runner.MapCtx(ctx, p, cells, func(k int) (*metrics.SingleSourceStats, error) {
		algo, xi := algos[k/len(xs)], k%len(xs)
		m := topos[xi]
		gap := s.Interarrival
		if s.PerNodeInterarrival > 0 {
			gap = s.PerNodeInterarrival / float64(m.Nodes())
		}
		if s.Axis == AxisInterarrival {
			gap = xs[xi]
		}
		ncfg := s.netConfig()
		if s.Axis == AxisVCs {
			ncfg.VCs = int(xs[xi])
		}
		st, err := metrics.ContendedCVStudy(m, algo, metrics.ContendedConfig{
			Net:          ncfg,
			Length:       s.Length,
			Broadcasts:   s.Reps,
			Interarrival: gap,
			Seed:         s.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("%s %s on %s: %w", s.Name, algo.Name(), m.Name(), err)
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	for a, algo := range algos {
		series := Series{Label: algo.Name()}
		for xi, x := range xs {
			st := grid[a*len(xs)+xi]
			point := Point{X: x}
			if s.Metric == MetricLatency {
				point.Y, point.CI = st.Latency.Mean(), st.Latency.Confidence95()
			} else {
				point.Y, point.CI = st.CV.Mean(), st.CV.Confidence95()
			}
			series.Points = append(series.Points, point)
		}
		fig.Series = append(fig.Series, series)
	}
	res.Figure = fig
	res.Table1, res.Table2 = tablesFrom(s, algos, topos, grid)
	return nil
}

// tablesFrom projects a contended study grid into the paper's Tables
// 1 (DB improvement) and 2 (AB improvement). It returns nils unless
// the grid covers the paper's four algorithms.
func tablesFrom(s *Spec, algos []broadcast.Algorithm, topos []*topology.Mesh, grid []*metrics.SingleSourceStats) (*CVTable, *CVTable) {
	index := map[string]int{}
	for a, algo := range algos {
		index[algo.Name()] = a
	}
	for _, need := range []string{"RD", "EDN", "DB", "AB"} {
		if _, ok := index[need]; !ok {
			return nil, nil
		}
	}
	nx := len(topos)
	t1 := &CVTable{ID: "Table 1", Proposed: "DB"}
	t2 := &CVTable{ID: "Table 2", Proposed: "AB"}
	for xi, m := range topos {
		cell := func(name string) *metrics.SingleSourceStats { return grid[index[name]*nx+xi] }
		t1.Columns = append(t1.Columns, CVColumn{
			Mesh:       m.Name(),
			Nodes:      m.Nodes(),
			ProposedCV: cell("DB").CV.Mean(),
			Rows:       metrics.Improvements(cell("DB"), cell("RD"), cell("EDN")),
		})
		t2.Columns = append(t2.Columns, CVColumn{
			Mesh:       m.Name(),
			Nodes:      m.Nodes(),
			ProposedCV: cell("AB").CV.Mean(),
			Rows:       metrics.Improvements(cell("AB"), cell("RD"), cell("EDN")),
		})
	}
	return t1, t2
}

// runMixed executes the §3.3 open-loop workload over the load axis:
// one (algorithm, load) point is a single closed simulation. Each
// point's seed depends only on its load index, so the figure is
// bit-identical for any Procs value.
func runMixed(ctx context.Context, s *Spec, algos []broadcast.Algorithm, res *Result) error {
	m := s.buildTopo(s.Dims)
	title, xl, yl := s.headings(m)
	fig := &Figure{ID: s.ID, Title: title, XLabel: xl, YLabel: yl}

	maxInjected := s.MaxInjected
	if maxInjected <= 0 {
		maxInjected = traffic.DefaultMaxInjected(m.Nodes(), s.Batches*s.BatchSize)
	}
	nl := len(s.Xs)
	points := len(algos) * nl
	p := s.pool(points)
	results, err := runner.MapCtx(ctx, p, points, func(k int) (Point, error) {
		algo, load := algos[k/nl], s.Xs[k%nl]
		var unicast, adaptive routing.Selector
		if algo.Name() == "AB" {
			wf := routing.WestFirstFor(m)
			unicast, adaptive = wf, wf
		}
		ncfg := s.netConfig()
		ncfg.Ports = algo.Ports()
		tcfg := traffic.MixedConfig{
			Rate:              load * s.LoadScale / 1000, // messages/ms -> messages/µs
			BroadcastFraction: s.BroadcastFraction,
			Length:            s.Length,
			Algorithm:         algo,
			Unicast:           unicast,
			Adaptive:          adaptive,
			Seed:              s.Seed + uint64(k%nl)*1009,
			BatchSize:         s.BatchSize,
			Batches:           s.Batches,
			Warmup:            s.Warmup,
			MaxTime:           s.MaxTime,
			MaxInjected:       maxInjected,
		}
		switch s.Pattern {
		case PatternHotspot:
			tcfg.HotspotFraction = s.HotspotFraction
			tcfg.Hotspot = topology.NodeID(m.Nodes() / 2)
		case PatternTranspose, PatternBitReversal:
			// The traffic layer uses the same spellings.
			tcfg.Pattern = s.Pattern
		}
		r, err := traffic.RunMixedWith(m, ncfg, tcfg)
		if err != nil {
			return Point{}, fmt.Errorf("%s %s at %g msg/ms: %w", s.ID, algo.Name(), load, err)
		}
		return Point{X: load, Y: r.MeanLatency, CI: r.CI}, nil
	})
	if err != nil {
		return err
	}
	for a, algo := range algos {
		// Three-index slices cap each series' capacity at its own
		// window so an append by a consumer can never clobber the
		// next series' points in the shared backing array.
		fig.Series = append(fig.Series, Series{
			Label:  algo.Name(),
			Points: results[a*nl : (a+1)*nl : (a+1)*nl],
		})
	}
	res.Figure = fig
	return nil
}
