package network

import (
	"math"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

func testNet(t *testing.T, dims ...int) (*sim.Simulator, *topology.Mesh, *Network) {
	t.Helper()
	s := sim.New()
	m := topology.NewMesh(dims...)
	n, err := New(s, m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s, m, n
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestUncontendedUnicastLatency pins the wormhole timing model:
// latency = Ts + D*HopDelay + L*Beta for an uncontended worm.
func TestUncontendedUnicastLatency(t *testing.T) {
	s, m, n := testNet(t, 8, 8)
	cfg := n.Config()
	var arrived sim.Time
	src, dst := m.ID(0, 0), m.ID(3, 2)
	n.MustSend(0, &Transfer{
		Source:    src,
		Waypoints: []topology.NodeID{dst},
		Length:    64,
		OnDeliver: func(node topology.NodeID, at sim.Time) {
			if node != dst {
				t.Errorf("delivered at %d, want %d", node, dst)
			}
			arrived = at
		},
	})
	s.Run()
	want := cfg.Ts + 5*cfg.Beta + 64*cfg.Beta
	if !almost(arrived, want) {
		t.Fatalf("arrival = %v, want %v", arrived, want)
	}
	if n.InFlight() != 0 {
		t.Fatal("worm still in flight")
	}
	if n.Finished() != 1 || n.Injected() != 1 {
		t.Fatalf("counts: injected %d finished %d", n.Injected(), n.Finished())
	}
}

// TestMultidestinationPipelining checks CPR distance insensitivity:
// consecutive waypoints on one path receive within one flit time of
// each other, far less than a per-hop store-and-forward would give.
func TestMultidestinationPipelining(t *testing.T) {
	s, m, n := testNet(t, 8, 1)
	arrivals := map[topology.NodeID]sim.Time{}
	wps := []topology.NodeID{m.ID(1, 0), m.ID(2, 0), m.ID(3, 0), m.ID(4, 0), m.ID(5, 0), m.ID(6, 0), m.ID(7, 0)}
	n.MustSend(0, &Transfer{
		Source:    m.ID(0, 0),
		Waypoints: wps,
		Length:    64,
		OnDeliver: func(node topology.NodeID, at sim.Time) { arrivals[node] = at },
	})
	s.Run()
	if len(arrivals) != len(wps) {
		t.Fatalf("delivered to %d nodes, want %d", len(arrivals), len(wps))
	}
	beta := n.Config().Beta
	for i := 1; i < len(wps); i++ {
		gap := arrivals[wps[i]] - arrivals[wps[i-1]]
		if !almost(gap, beta) {
			t.Fatalf("waypoint gap = %v, want %v (one flit time)", gap, beta)
		}
	}
}

// TestChannelBlocking verifies wormhole semantics: a second worm
// wanting a held channel waits until the first worm's tail clears it.
func TestChannelBlocking(t *testing.T) {
	s, m, n := testNet(t, 4, 1)
	var first, second sim.Time
	long := 1000
	n.MustSend(0, &Transfer{
		Source:    m.ID(0, 0),
		Waypoints: []topology.NodeID{m.ID(3, 0)},
		Length:    long,
		OnDeliver: func(_ topology.NodeID, at sim.Time) { first = at },
	})
	// Second worm needs channel 1->2, which the first worm holds by
	// t=2 and keeps until its tail drains.
	n.MustSend(2, &Transfer{
		Source:    m.ID(1, 0),
		Waypoints: []topology.NodeID{m.ID(2, 0)},
		Length:    10,
		OnDeliver: func(_ topology.NodeID, at sim.Time) { second = at },
	})
	s.Run()
	cfg := n.Config()
	firstDrain := cfg.Ts + 3*cfg.Beta + float64(long)*cfg.Beta
	if first > firstDrain+1e-9 {
		t.Fatalf("first worm arrived at %v, want <= %v", first, firstDrain)
	}
	// The second worm could not start crossing before the first's
	// tail cleared channel 1->2.
	if second < firstDrain-3*cfg.Beta {
		t.Fatalf("second worm (%v) did not wait for the first (tail ~%v)", second, firstDrain)
	}
}

// TestOnePortSerialisation: with one injection port, two sends from
// the same node serialise Ts apart at least.
func TestOnePortSerialisation(t *testing.T) {
	s, m, n := testNet(t, 4, 4)
	var a1, a2 sim.Time
	n.MustSend(0, &Transfer{
		Source: m.ID(0, 0), Waypoints: []topology.NodeID{m.ID(3, 0)}, Length: 100,
		OnDeliver: func(_ topology.NodeID, at sim.Time) { a1 = at },
	})
	n.MustSend(0, &Transfer{
		Source: m.ID(0, 0), Waypoints: []topology.NodeID{m.ID(0, 3)}, Length: 100,
		OnDeliver: func(_ topology.NodeID, at sim.Time) { a2 = at },
	})
	s.Run()
	if a2 <= a1 {
		t.Fatalf("second injection (%v) not after first (%v)", a2, a1)
	}
}

// TestMultiPortParallelism: with three ports the same two sends go
// out together.
func TestMultiPortParallelism(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(4, 4)
	cfg := DefaultConfig()
	cfg.Ports = 3
	n := MustNew(s, m, cfg)
	var a1, a2 sim.Time
	n.MustSend(0, &Transfer{
		Source: m.ID(0, 0), Waypoints: []topology.NodeID{m.ID(3, 0)}, Length: 100,
		OnDeliver: func(_ topology.NodeID, at sim.Time) { a1 = at },
	})
	n.MustSend(0, &Transfer{
		Source: m.ID(0, 0), Waypoints: []topology.NodeID{m.ID(0, 3)}, Length: 100,
		OnDeliver: func(_ topology.NodeID, at sim.Time) { a2 = at },
	})
	s.Run()
	if !almost(a1, a2) {
		t.Fatalf("multiport sends not parallel: %v vs %v", a1, a2)
	}
}

// TestAdaptiveRoutesAroundBusyChannel: a west-first worm offered two
// profitable directions takes the free one when its preferred channel
// is held.
func TestAdaptiveRoutesAroundBusyChannel(t *testing.T) {
	// A long coded-path worm from (0,1) occupies channel (1,1)->(2,1)
	// without touching the test worm's injection port at (1,1).
	blocker := func() *Transfer {
		return &Transfer{
			Source:    topology.NodeID(0), // placeholder; set below
			Waypoints: nil,
			Length:    100000,
		}
	}
	run := func(adaptive bool) sim.Time {
		s := sim.New()
		m := topology.NewMesh(4, 4)
		n := MustNew(s, m, DefaultConfig())
		b := blocker()
		b.Source = m.ID(0, 1)
		b.Waypoints = []topology.NodeID{m.ID(1, 1), m.ID(2, 1)}
		n.MustSend(0, b)
		var sel routing.Selector
		if adaptive {
			sel = routing.NewWestFirst(m)
		}
		var done sim.Time
		// Test worm (1,1) -> (2,2): may go +x (busy) or +y (free).
		n.MustSend(2, &Transfer{
			Source: m.ID(1, 1), Waypoints: []topology.NodeID{m.ID(2, 2)}, Length: 10,
			Selector:  sel,
			OnDeliver: func(_ topology.NodeID, at sim.Time) { done = at },
		})
		s.Run()
		return done
	}
	adaptiveDone := run(true)
	dorDone := run(false)
	if adaptiveDone >= dorDone {
		t.Fatalf("adaptive (%v) not faster than blocked DOR (%v)", adaptiveDone, dorDone)
	}
	if dorDone < 100000*DefaultConfig().Beta {
		t.Fatalf("DOR worm (%v) did not actually block", dorDone)
	}
}

func TestSendValidation(t *testing.T) {
	_, m, n := testNet(t, 4, 4)
	cases := []*Transfer{
		{Source: 0, Waypoints: []topology.NodeID{1}, Length: 0},
		{Source: 0, Waypoints: nil, Length: 10},
		{Source: 0, Waypoints: []topology.NodeID{0}, Length: 10},
		{Source: 0, Waypoints: []topology.NodeID{1, 1}, Length: 10},
		{Source: 0, Waypoints: []topology.NodeID{topology.NodeID(m.Nodes())}, Length: 10},
	}
	for i, tr := range cases {
		if err := n.Send(0, tr); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(2, 2)
	bad := []Config{
		{Ts: -1, Beta: 0.003},
		{Ts: 1, Beta: 0},
		{Ts: 1, Beta: 0.01, HopDelay: -2},
	}
	for i, cfg := range bad {
		if _, err := New(s, m, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestFIFOChannelQueue: two worms blocked on the same channel acquire
// it in request order.
func TestFIFOChannelQueue(t *testing.T) {
	s, m, n := testNet(t, 4, 1)
	var order []int
	hold := &Transfer{Source: m.ID(0, 0), Waypoints: []topology.NodeID{m.ID(2, 0)}, Length: 5000}
	n.MustSend(0, hold)
	for i, from := range []topology.NodeID{m.ID(1, 0), m.ID(1, 0)} {
		i := i
		n.MustSend(sim.Time(1+i), &Transfer{
			Source: from, Waypoints: []topology.NodeID{m.ID(2, 0)}, Length: 10,
			OnDeliver: func(_ topology.NodeID, _ sim.Time) { order = append(order, i) },
		})
	}
	s.Run()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("queue order = %v", order)
	}
}

// TestHighContentionCompletes floods a small mesh with random worms
// under DOR and checks everything drains (no simulated deadlock).
func TestHighContentionCompletes(t *testing.T) {
	s, m, n := testNet(t, 4, 4, 4)
	rng := sim.NewRNG(5, 77)
	const worms = 2000
	done := 0
	for i := 0; i < worms; i++ {
		src := topology.NodeID(rng.Intn(m.Nodes()))
		dst := topology.NodeID(rng.Intn(m.Nodes() - 1))
		if dst >= src {
			dst++
		}
		n.MustSend(rng.Uniform(0, 50), &Transfer{
			Source: src, Waypoints: []topology.NodeID{dst}, Length: 1 + rng.Intn(64),
			OnDeliver: func(_ topology.NodeID, _ sim.Time) { done++ },
		})
	}
	s.Run()
	if done != worms {
		t.Fatalf("only %d/%d worms delivered; stuck: %v", done, worms, n.Stuck())
	}
	if n.InFlight() != 0 {
		t.Fatalf("in flight: %d", n.InFlight())
	}
}

// TestHopDelayOverride checks the configurable header delay.
func TestHopDelayOverride(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(5, 1)
	cfg := DefaultConfig()
	cfg.HopDelay = 0.5
	n := MustNew(s, m, cfg)
	var at sim.Time
	n.MustSend(0, &Transfer{
		Source: m.ID(0, 0), Waypoints: []topology.NodeID{m.ID(4, 0)}, Length: 10,
		OnDeliver: func(_ topology.NodeID, a sim.Time) { at = a },
	})
	s.Run()
	want := cfg.Ts + 4*0.5 + 10*cfg.Beta
	if !almost(at, want) {
		t.Fatalf("arrival = %v, want %v", at, want)
	}
}
