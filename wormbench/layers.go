package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"time"

	"repro/internal/broadcast"
	"repro/internal/export"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// layerInputs are one workload's own inputs for the per-layer probes:
// its mesh, its first op and the timing constants it runs with.
type layerInputs struct {
	mesh *topology.Mesh
	// ops are the specs of round 0 (one per algorithm; the service
	// workload has one, its first miss), with their digest keys and
	// output format.
	ops    []scenario.Spec
	keys   []string
	format string
	// request is ops[0] as a service request, with its body's digest key.
	request    service.RunRequest
	requestKey string
	// studyBroadcasts sizes the metrics.ContendedCVStudy probe, and
	// pointBatches the measured window (batches of 10 messages) of the
	// traffic.RunMixedWith probe. Overlapping broadcasts on the 2^16-node
	// mesh hold about 70 MB each, so scale64k keeps both small.
	studyBroadcasts int
	pointBatches    int
}

func simLayerInputs(name string, pool int, build specFunc, b *bench) layerInputs {
	perm := sim.Substream(b.cfg.seed, 0x5eed).Perm(pool)
	seed := uint64(perm[0] + 1)
	in := layerInputs{format: "csv", studyBroadcasts: 40, pointBatches: 21}
	for _, algo := range algorithms {
		spec, err := build(algo, seed, b.cfg.procs)
		if err != nil {
			panic(err) // the same build succeeded at set-up
		}
		in.ops = append(in.ops, spec)
		in.keys = append(in.keys, simKey(algo, seed))
	}
	in.mesh = buildMesh(in.ops[0])
	in.request = service.RunRequest{Spec: &in.ops[0], Format: "csv", Procs: b.cfg.procs}
	in.requestKey = in.keys[0]
	if name == "scale64k" {
		in.studyBroadcasts = 4
		in.pointBatches = 2
	}
	return in
}

func serviceLayerInputs(b *bench) layerInputs {
	_, miss := splitUniverse(b.cfg.seed)
	u := miss[0]
	spec, err := serviceSpec(u, b.cfg.procs)
	if err != nil {
		panic(err)
	}
	return layerInputs{
		mesh:            buildMesh(spec),
		ops:             []scenario.Spec{spec},
		keys:            []string{serviceKey(u)},
		format:          export.Formats()[u%3],
		request:         serviceRequest(u, b.cfg.procs),
		requestKey:      serviceKey(u),
		studyBroadcasts: 40,
		pointBatches:    21,
	}
}

// layerRun collects per-layer metrics and probe failures.
type layerRun struct {
	b  *bench
	in layerInputs
	tr *opTracer
	// res is the first op's result; res.Spec is its spec with every
	// default resolved, which the probes take their inputs from.
	res     *scenario.Result
	metrics map[string]metric
	errs    []string
}

func (r *layerRun) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *layerRun) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// timed runs one probe under a span named after the layer call.
func (r *layerRun) timed(name string, fn func()) {
	defer r.tr.begin(name)()
	fn()
}

// perCall times fn(n) — n calls of the measured operation — in batches
// of at least a millisecond for about budget, and returns the median
// seconds per call over the batches.
func perCall(budget time.Duration, fn func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		if d := time.Since(t0); d >= time.Millisecond || n >= 1<<24 {
			break
		}
		n *= 4
	}
	var per []float64
	deadline := time.Now().Add(budget)
	for len(per) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		fn(n)
		per = append(per, time.Since(t0).Seconds()/float64(n))
	}
	return median(per)
}

const probeBudget = 300 * time.Millisecond

// runLayers executes every layer probe on the workload's inputs.
func (b *bench) runLayers(in layerInputs, tr *opTracer) *layerRun {
	r := &layerRun{b: b, in: in, tr: tr, metrics: map[string]metric{}}
	r.timed("counts", r.counts)
	if r.res == nil {
		return r
	}
	r.timed("topology.New", r.topology)
	r.timed("network", r.network)
	r.timed("routing", r.routing)
	r.timed("broadcast", r.broadcast)
	r.timed("metrics.ContendedCVStudy", r.study)
	r.timed("traffic.RunMixedWith", r.trafficPoint)
	r.timed("stats", r.stats)
	r.timed("scenario", r.scenario)
	r.timed("runner.Map", r.runner)
	return r
}

// netConfig is the network configuration the scenario run loop builds
// for spec.
func netConfig(spec scenario.Spec, algo broadcast.Algorithm) network.Config {
	cfg := network.DefaultConfig()
	cfg.Ts = spec.Ts
	cfg.VCs = spec.VCs
	cfg.Ports = algo.Ports()
	return cfg
}

func algorithm(name string) broadcast.Algorithm {
	switch name {
	case "EDN":
		return broadcast.NewEDN()
	case "DB":
		return broadcast.NewDB()
	case "AB":
		return broadcast.NewAB()
	}
	return broadcast.NewRD()
}

// opCounts are exact counts of one op's simulated work.
type opCounts struct {
	events, worms, injected uint64
	runSec                  float64 // host seconds inside Simulator.Run
}

func (c *opCounts) add(o opCounts) {
	c.events += o.events
	c.worms += o.worms
	c.injected += o.injected
	c.runSec += o.runSec
}

// counts replays the ops of round 0 through the sim, network and
// broadcast layers directly, mirroring the study loops the scenario
// runs, and checks the replay against the layer above. The replay's
// event and worm counts are the replica's: only on saturation does the
// program report an event count to check them against (see
// replayContended). A change in how traffic or RunSingle schedule their
// events would not move them on mixed or scale64k.
func (r *layerRun) counts() {
	var total opCounts
	for i, spec := range r.in.ops {
		t0 := time.Now()
		res, err := scenario.Run(context.Background(), spec)
		if err != nil {
			r.fail("counts: %s: %v", r.in.keys[i], err)
			return
		}
		if i == 0 {
			r.set("scenario.run_ms", time.Since(t0).Seconds()*1e3, "ms")
			r.res = res
		}
		c, err := replayOp(r.in.mesh, res)
		if err != nil {
			r.fail("counts: %s: %v", r.in.keys[i], err)
			return
		}
		total.add(c)
	}
	n := float64(len(r.in.ops))
	r.set("sim.replay_events_per_op", float64(total.events)/n, "count")
	r.set("network.replay_worms_per_op", float64(total.worms)/n, "count")
	r.set("traffic.injected_per_op", float64(total.injected)/n, "count")
	r.set("sim.replay_events_per_s", float64(total.events)/total.runSec, "1/s")
}

// replayOp replays every simulation of one resolved scenario result.
func replayOp(m *topology.Mesh, res *scenario.Result) (opCounts, error) {
	spec := res.Spec
	var total opCounts
	for a, name := range spec.Algorithms {
		algo := algorithm(name)
		points := res.Figure.Series[a].Points
		switch spec.Workload {
		case scenario.Contended:
			for _, gap := range spec.Xs {
				c, err := replayContended(m, algo, spec, gap)
				if err != nil {
					return total, err
				}
				total.add(c)
			}
		case scenario.Mixed:
			for k, load := range spec.Xs {
				c, err := replayMixed(m, algo, spec, k, load)
				if err != nil {
					return total, err
				}
				total.add(c)
			}
		default:
			var lat stats.Accumulator
			for rep := 0; rep < spec.Reps; rep++ {
				src := topology.NodeID(sim.Substream(spec.Seed, uint64(rep)).Intn(m.Nodes()))
				c, l, err := replaySingle(m, algo, spec, src)
				if err != nil {
					return total, err
				}
				lat.Add(l)
				total.add(c)
			}
			if got, want := lat.Mean(), points[0].Y; got != want {
				return total, fmt.Errorf("replayed %s mean latency %v, scenario reported %v", name, got, want)
			}
		}
	}
	return total, nil
}

// replayContended mirrors metrics.ContendedCVStudy and checks its event
// count against it.
func replayContended(m *topology.Mesh, algo broadcast.Algorithm, spec scenario.Spec, gap float64) (opCounts, error) {
	ncfg := netConfig(spec, algo)
	s := sim.New()
	net, err := network.New(s, m, ncfg)
	if err != nil {
		return opCounts{}, err
	}
	var adaptive routing.Selector
	if algo.Name() == "AB" {
		adaptive = routing.WestFirstFor(m)
	}
	rng := sim.NewRNG(spec.Seed, 31)
	at := sim.Time(0)
	results := make([]*broadcast.Result, 0, spec.Reps)
	for i := 0; i < spec.Reps; i++ {
		at += rng.Exp(gap)
		src := topology.NodeID(rng.Intn(m.Nodes()))
		plan, err := broadcast.PlanCached(m, algo, src)
		if err != nil {
			return opCounts{}, err
		}
		res, err := broadcast.Execute(net, plan, broadcast.Options{Start: at, Length: spec.Length, Adaptive: adaptive})
		if err != nil {
			return opCounts{}, err
		}
		results = append(results, res)
	}
	t0 := time.Now()
	s.Run()
	c := opCounts{events: s.Fired(), worms: net.Injected(), injected: uint64(spec.Reps), runSec: time.Since(t0).Seconds()}
	for _, res := range results {
		if !res.Done {
			return c, fmt.Errorf("replayed %s broadcast stalled", algo.Name())
		}
	}
	st, err := metrics.ContendedCVStudy(m, algo, metrics.ContendedConfig{
		Net: ncfg, Length: spec.Length, Broadcasts: spec.Reps, Interarrival: gap, Seed: spec.Seed,
	})
	if err != nil {
		return c, err
	}
	if st.Events != c.events {
		return c, fmt.Errorf("replayed %s study fired %d events, metrics.ContendedCVStudy %d", algo.Name(), c.events, st.Events)
	}
	return c, nil
}

// replaySingle mirrors broadcast.RunSingle and returns the latency.
func replaySingle(m *topology.Mesh, algo broadcast.Algorithm, spec scenario.Spec, src topology.NodeID) (opCounts, float64, error) {
	plan, err := broadcast.PlanCached(m, algo, src)
	if err != nil {
		return opCounts{}, 0, err
	}
	s := sim.New()
	net, err := network.New(s, m, netConfig(spec, algo))
	if err != nil {
		return opCounts{}, 0, err
	}
	var adaptive routing.Selector
	for _, send := range plan.Sends {
		if send.Adaptive {
			adaptive = routing.WestFirstFor(m)
			break
		}
	}
	res, err := broadcast.Execute(net, plan, broadcast.Options{
		Length: spec.Length, Adaptive: adaptive, Stream: m.Nodes() >= broadcast.StreamThreshold,
	})
	if err != nil {
		return opCounts{}, 0, err
	}
	t0 := time.Now()
	s.Run()
	c := opCounts{events: s.Fired(), worms: net.Injected(), injected: 1, runSec: time.Since(t0).Seconds()}
	if !res.Done {
		return c, 0, fmt.Errorf("replayed %s broadcast from %d stalled", algo.Name(), src)
	}
	return c, res.Latency(), nil
}

// replayMixed mirrors one uniform-pattern load point of the §3.3 mixed
// workload as the scenario run loop configures traffic.RunMixedWith,
// and checks the replay's message counts and duration against it.
func replayMixed(m *topology.Mesh, algo broadcast.Algorithm, spec scenario.Spec, k int, load float64) (opCounts, error) {
	ncfg := netConfig(spec, algo)
	var unicast routing.Selector
	if algo.Name() == "AB" {
		unicast = routing.WestFirstFor(m)
	}
	window := spec.Batches * spec.BatchSize
	cfg := traffic.MixedConfig{
		Rate:              load * spec.LoadScale / 1000,
		BroadcastFraction: spec.BroadcastFraction,
		Length:            spec.Length,
		Algorithm:         algo,
		Unicast:           unicast,
		Adaptive:          unicast,
		Seed:              spec.Seed + uint64(k)*1009,
		BatchSize:         spec.BatchSize,
		Batches:           spec.Batches,
		Warmup:            spec.Warmup,
		MaxTime:           spec.MaxTime,
		MaxInjected:       traffic.DefaultMaxInjected(m.Nodes(), window),
	}
	maxTime := cfg.MaxTime
	if maxTime <= 0 {
		maxTime = 5e6
	}
	s := sim.New()
	net, err := network.New(s, m, ncfg)
	if err != nil {
		return opCounts{}, err
	}
	n := m.Nodes()
	var injected, completed, measuredLeft = 0, 0, window
	stop := false
	var failure error
	complete := func(idx int) {
		completed++
		if idx >= 0 {
			measuredLeft--
			if measuredLeft == 0 {
				stop = true
			}
		}
	}
	var schedule func(node topology.NodeID, rng *sim.RNG)
	schedule = func(node topology.NodeID, rng *sim.RNG) {
		s.After(rng.Exp(1/cfg.Rate), func() {
			if stop || failure != nil {
				return
			}
			if s.Now() > maxTime || injected >= cfg.MaxInjected {
				stop = true
				return
			}
			at := s.Now()
			idx := -1
			if injected < window {
				idx = injected
			}
			injected++
			if rng.Float64() < cfg.BroadcastFraction {
				plan, err := broadcast.PlanCached(m, algo, node)
				if err == nil {
					_, err = broadcast.Execute(net, plan, broadcast.Options{
						Start: at, Length: cfg.Length, Adaptive: cfg.Adaptive,
						OnComplete: func(*broadcast.Result) { complete(idx) },
					})
				}
				if err != nil {
					failure = err
					return
				}
			} else {
				dst := topology.NodeID(rng.Intn(n - 1))
				if dst >= node {
					dst++
				}
				err := net.Send(at, &network.Transfer{
					Source: node, Waypoints: []topology.NodeID{dst}, Length: cfg.Length, Selector: cfg.Unicast,
					OnDeliver: func(topology.NodeID, sim.Time) { complete(idx) },
				})
				if err != nil {
					failure = err
					return
				}
			}
			schedule(node, rng)
		})
	}
	rng := sim.NewRNG(cfg.Seed, 11)
	for node := 0; node < n; node++ {
		schedule(topology.NodeID(node), rng.Split())
	}
	t0 := time.Now()
	s.Run()
	c := opCounts{events: s.Fired(), worms: net.Injected(), injected: uint64(injected), runSec: time.Since(t0).Seconds()}
	if failure != nil {
		return c, failure
	}
	want, err := traffic.RunMixedWith(m, ncfg, cfg)
	if err != nil {
		return c, err
	}
	if want.Injected != injected || want.Completed != completed || want.Duration != s.Now() {
		return c, fmt.Errorf("replayed %s point %d: injected/completed/duration %d/%d/%v, traffic.RunMixedWith %d/%d/%v",
			algo.Name(), k, injected, completed, s.Now(), want.Injected, want.Completed, want.Duration)
	}
	return c, nil
}

func (r *layerRun) topology() {
	spec := r.res.Spec
	var m *topology.Mesh
	sec := perCall(probeBudget, func(n int) {
		for i := 0; i < n; i++ {
			m = buildMesh(spec)
		}
	})
	if m.Nodes() != r.in.mesh.Nodes() {
		r.fail("topology: built %d nodes, want %d", m.Nodes(), r.in.mesh.Nodes())
	}
	r.set("topology.new_ms", sec*1e3, "ms")
}

// pairs draws k (source, destination) pairs of distinct nodes.
func (r *layerRun) pairs(k int) [][2]topology.NodeID {
	rng := sim.Substream(r.b.cfg.seed, 0x9a12)
	n := r.in.mesh.Nodes()
	out := make([][2]topology.NodeID, k)
	for i := range out {
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		out[i] = [2]topology.NodeID{topology.NodeID(a), topology.NodeID(b)}
	}
	return out
}

func (r *layerRun) network() {
	spec := r.res.Spec
	cfg := netConfig(spec, broadcast.NewRD())
	sec := perCall(probeBudget, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := network.New(sim.New(), r.in.mesh, cfg); err != nil {
				panic(err)
			}
		}
	})
	r.set("network.new_ms", sec*1e3, "ms")

	// Warm unicasts: one network, one worm at a time.
	s := sim.New()
	net, err := network.New(s, r.in.mesh, cfg)
	if err != nil {
		r.fail("network.New: %v", err)
		return
	}
	pairs := r.pairs(256)
	delivered, sent := 0, 0
	t := &network.Transfer{Length: spec.Length, Waypoints: make([]topology.NodeID, 1),
		OnDeliver: func(topology.NodeID, sim.Time) { delivered++ }}
	sec = perCall(probeBudget, func(n int) {
		for i := 0; i < n; i++ {
			p := pairs[sent%len(pairs)]
			t.Source, t.Waypoints[0] = p[0], p[1]
			if err := net.Send(s.Now(), t); err != nil {
				panic(err)
			}
			sent++
			s.Run()
		}
	})
	if delivered != sent {
		r.fail("network: %d of %d unicasts delivered", delivered, sent)
	}
	r.set("network.unicast_us", sec*1e6, "us")
}

func (r *layerRun) routing() {
	m := r.in.mesh
	pairs := r.pairs(1024)
	for _, sel := range []routing.Selector{routing.NewDOR(m), routing.WestFirstFor(m)} {
		app := sel.(routing.HopAppender)
		var buf []topology.NodeID
		sec := perCall(probeBudget, func(n int) {
			for i := 0; i < n; i++ {
				p := pairs[i%len(pairs)]
				buf = app.AppendNextHops(buf[:0], p[0], p[1])
			}
		})
		for _, p := range pairs {
			buf = app.AppendNextHops(buf[:0], p[0], p[1])
			if len(buf) == 0 || m.Distance(buf[0], p[1]) != m.Distance(p[0], p[1])-1 {
				r.fail("routing %s: step %d→%d is not minimal", sel.Name(), p[0], p[1])
				break
			}
		}
		r.set("routing.step_ns."+sel.Name(), sec*1e9, "ns")
	}
}

func (r *layerRun) broadcast() {
	m := r.in.mesh
	rng := sim.Substream(r.b.cfg.seed, 0xb0)
	for _, name := range algorithms {
		algo := algorithm(name)
		src := topology.NodeID(rng.Intn(m.Nodes()))
		var failure error
		sec := perCall(probeBudget, func(n int) {
			for i := 0; i < n; i++ {
				p, err := algo.Plan(m, src)
				if err == nil {
					err = p.Validate(m)
				}
				if err != nil {
					failure = err
				}
			}
		})
		if failure != nil {
			r.fail("broadcast %s plan: %v", name, failure)
		}
		r.set("broadcast.plan_us."+name, sec*1e6, "us")
	}

	rd := broadcast.NewRD()
	src := topology.NodeID(rng.Intn(m.Nodes()))
	first, err := broadcast.PlanCached(m, rd, src)
	if err != nil {
		r.fail("broadcast PlanCached: %v", err)
		return
	}
	same := true
	sec := perCall(probeBudget, func(n int) {
		for i := 0; i < n; i++ {
			p, _ := broadcast.PlanCached(m, rd, src)
			same = same && p != nil && p.Source == first.Source && len(p.Sends) == len(first.Sends)
		}
	})
	if !same {
		r.fail("broadcast PlanCached returned a different plan")
	}
	r.set("broadcast.plancached_ns", sec*1e9, "ns")

	spec := r.res.Spec
	s := sim.New()
	net, err := network.New(s, m, netConfig(spec, rd))
	if err != nil {
		r.fail("network.New: %v", err)
		return
	}
	pairs := r.pairs(64)
	plans := make([]*broadcast.Plan, len(pairs))
	for i, p := range pairs {
		if plans[i], err = broadcast.PlanCached(m, rd, p[0]); err != nil {
			r.fail("broadcast PlanCached: %v", err)
			return
		}
	}
	k, stalled := 0, 0
	sec = perCall(probeBudget, func(n int) {
		for i := 0; i < n; i++ {
			res, err := broadcast.Execute(net, plans[k%len(plans)], broadcast.Options{
				Start: s.Now(), Length: spec.Length, Stream: m.Nodes() >= broadcast.StreamThreshold,
			})
			k++
			if err != nil {
				panic(err)
			}
			s.Run()
			if !res.Done {
				stalled++
			}
		}
	})
	if stalled > 0 {
		r.fail("broadcast.Execute: %d of %d broadcasts not done", stalled, k)
	}
	r.set("broadcast.execute_us", sec*1e6, "us")
}

func (r *layerRun) study() {
	spec := r.res.Spec
	rd := broadcast.NewRD()
	var st *metrics.SingleSourceStats
	var err error
	sec := perCall(probeBudget, func(n int) {
		for i := 0; i < n; i++ {
			st, err = metrics.ContendedCVStudy(r.in.mesh, rd, metrics.ContendedConfig{
				Net: netConfig(spec, rd), Length: spec.Length, Broadcasts: r.in.studyBroadcasts,
				Interarrival: 2, Seed: r.b.cfg.seed,
			})
		}
	})
	if err != nil || st.Latency.N() != r.in.studyBroadcasts {
		r.fail("metrics.ContendedCVStudy: %v", err)
	}
	r.set("metrics.study_ms", sec*1e3, "ms")
}

func (r *layerRun) trafficPoint() {
	spec := r.res.Spec
	rd := broadcast.NewRD()
	var res *traffic.MixedResult
	var err error
	sec := perCall(probeBudget, func(n int) {
		for i := 0; i < n; i++ {
			res, err = traffic.RunMixedWith(r.in.mesh, netConfig(spec, rd), traffic.MixedConfig{
				Rate: 0.01 * 320 / 1000, BroadcastFraction: 0.1, Length: 32, Algorithm: rd, Seed: r.b.cfg.seed,
				BatchSize: 10, Batches: r.in.pointBatches, Warmup: 1,
				MaxInjected: traffic.DefaultMaxInjected(r.in.mesh.Nodes(), 10*r.in.pointBatches),
			})
		}
	})
	if err != nil || res.Injected == 0 {
		r.fail("traffic.RunMixedWith: %v", err)
	}
	r.set("traffic.point_ms", sec*1e3, "ms")
}

func (r *layerRun) stats() {
	rng := sim.Substream(r.b.cfg.seed, 0x57)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = rng.Exp(10)
	}
	var acc stats.Accumulator
	sec := perCall(probeBudget, func(n int) {
		for i := 0; i < n; i++ {
			acc.Add(xs[i%len(xs)])
		}
	})
	if m := acc.Mean(); math.IsNaN(m) || m <= 0 {
		r.fail("stats: accumulator mean %v", m)
	}
	r.set("stats.add_ns", sec*1e9, "ns")

	var a, b stats.Accumulator
	a.AddAll(xs[:2048])
	b.AddAll(xs[2048:])
	var merged stats.Accumulator
	sec = perCall(probeBudget, func(n int) {
		for i := 0; i < n; i++ {
			merged = a
			merged.Merge(&b)
		}
	})
	if merged.N() != len(xs) {
		r.fail("stats: merged %d observations, want %d", merged.N(), len(xs))
	}
	r.set("stats.merge_ns", sec*1e9, "ns")
}

// scenario times Key on the first op's spec, renders its result in
// every export format, and drives the service layer in-process and
// over in-process HTTP with the same op as a request.
func (r *layerRun) scenario() {
	spec := r.res.Spec
	key, err := spec.Key()
	if err != nil {
		r.fail("scenario.Key: %v", err)
		return
	}
	stable := true
	sec := perCall(probeBudget, func(n int) {
		for i := 0; i < n; i++ {
			k, _ := spec.Key()
			stable = stable && k == key
		}
	})
	if !stable {
		r.fail("scenario.Key is not stable")
	}
	r.set("scenario.key_us", sec*1e6, "us")

	res := r.res
	var buf bytes.Buffer
	for _, format := range export.Formats() {
		sink, err := export.NewSink(format, &buf)
		if err != nil {
			r.fail("export.NewSink: %v", err)
			return
		}
		sec := perCall(probeBudget, func(n int) {
			for i := 0; i < n; i++ {
				buf.Reset()
				if err := sink.Emit(res); err != nil {
					panic(err)
				}
			}
		})
		if format == r.in.format {
			if err := r.b.check(r.in.keys[0], buf.Bytes()); err != nil {
				r.fail("export %s: %v", format, err)
			}
		}
		r.set("export.render_us."+format, sec*1e6, "us")
	}
	r.service()
}

func (r *layerRun) runner() {
	p := runner.New(r.b.cfg.procs)
	ok := true
	sec := perCall(probeBudget, func(n int) {
		out, err := runner.Map(p, n, func(i int) (int, error) { return i, nil })
		ok = ok && err == nil && len(out) == n && (n == 0 || out[n-1] == n-1)
	})
	if !ok {
		r.fail("runner.Map returned out of order")
	}
	r.set("runner.job_us", sec*1e6, "us")
}

// service measures a hit answered by Server.Run in-process and over
// in-process HTTP, on a fresh server holding the op's result.
func (r *layerRun) service() {
	lb := startLoopback(nil)
	defer lb.close()
	ctx := context.Background()
	req := r.in.request
	if _, outcome, _, err := lb.srv.Run(ctx, &req); err != nil || outcome != service.OutcomeMiss {
		r.fail("service fill: outcome %q, %v", outcome, err)
		return
	}
	bad := 0
	var body []byte
	inproc := perCall(probeBudget, func(n int) {
		for i := 0; i < n; i++ {
			var outcome service.Outcome
			var err error
			body, outcome, _, err = lb.srv.Run(ctx, &req)
			if err != nil || outcome != service.OutcomeHit {
				bad++
			}
		}
	})
	if err := r.b.check(r.in.requestKey, body); err != nil {
		r.fail("service in-process: %v", err)
	}

	payload, err := json.Marshal(requestJSON(req))
	if err != nil {
		r.fail("service: %v", err)
		return
	}
	var lat []float64
	var buf bytes.Buffer
	deadline := time.Now().Add(probeBudget)
	for len(lat) < 100 || time.Now().Before(deadline) {
		t0 := time.Now()
		class, err := lb.post(ctx, payload, nil, &buf)
		lat = append(lat, time.Since(t0).Seconds())
		if err != nil || class != "hit" || r.b.check(r.in.requestKey, buf.Bytes()) != nil {
			bad++
		}
	}
	if bad > 0 {
		r.fail("service: %d hits answered wrongly", bad)
	}
	r.set("service.hit_inproc_us", inproc*1e6, "us")
	r.set("service.http_us", (median(lat)-inproc)*1e6, "us")
	r.serviceCounters(lb)
}

// serviceCounters reports the result-cache counters of a loopback
// server's /metrics.
func (r *layerRun) serviceCounters(lb *loopback) {
	m, err := lb.scrape()
	if err != nil {
		r.fail("service /metrics: %v", err)
		return
	}
	hits, misses, dedup := m["wormsimd_cache_hits_total"], m["wormsimd_misses_total"], m["wormsimd_dedup_total"]
	r.set("service.cache_hit_ratio", hits/math.Max(hits+misses+dedup, 1), "ratio")
	r.set("service.dedup", dedup, "count")
	r.set("service.shed", m["wormsimd_rejected_total"], "count")
	r.set("service.cache_bytes", m["wormsimd_cache_bytes"], "bytes")
}

// requestJSON is a run request as the JSON object a client posts. An
// inline scenario.Spec carries a func field json cannot encode, so the
// spec is sent as a map of its other exported fields.
func requestJSON(req service.RunRequest) any {
	if req.Spec == nil {
		return req
	}
	spec := map[string]any{}
	v := reflect.ValueOf(*req.Spec)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() && f.Type.Kind() != reflect.Func {
			spec[f.Name] = v.Field(i).Interface()
		}
	}
	return map[string]any{"spec": spec, "format": req.Format, "procs": req.Procs}
}
