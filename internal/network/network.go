// Package network simulates a wormhole-switched direct network with a
// single FIFO queue per channel, the model the paper's VC++/CSIM
// simulator used. A message is a worm: after a startup latency Ts at
// the source, its header flit advances one channel per HopDelay,
// blocking in place (and holding every channel already acquired) when
// the next channel is busy. Once the header reaches the end of its
// coded path the body drains at Beta per flit and the held channels
// release in pipeline order. Multidestination (CPR) delivery, one-port
// and multi-port injection, and adaptive next-hop selection are all
// modelled here.
//
// With Config.VCs >= 2 each physical channel splits into independent
// virtual-channel lanes (own holder, own FIFO) — the substrate that
// makes minimal routing deadlock-free on tori when paired with a
// dateline routing.VCPolicy. The default of one VC reproduces the
// paper's mesh model exactly.
package network

import (
	"fmt"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Config carries the timing and port parameters of the network. The
// defaults mirror the paper's Cray T3D-derived constants.
type Config struct {
	// Ts is the communication startup latency in µs (paper: 0.15 or 1.5).
	Ts float64
	// Beta is the time to transmit one flit across a channel in µs
	// (paper: 0.003).
	Beta float64
	// HopDelay is the header's per-hop routing delay in µs. Zero
	// means "use Beta", matching a router that forwards the header in
	// one flit time.
	HopDelay float64
	// Ports is the number of simultaneous injections a node supports:
	// 1 for the one-port model (RD, DB, AB), 3 for EDN's three-port
	// router. Zero means 1.
	Ports int
	// DeadWait is how long a worm whose every admissible next hop is
	// dead waits for a recovery before it is dropped, in µs. Zero
	// drops such worms immediately. It is only ever consulted on a
	// network that has seen a fault (see health.go); pristine runs
	// never read it.
	DeadWait float64
	// Store selects the state-allocation model (see store.go). The
	// zero value StoreAuto keeps every network below LazyStoreThreshold
	// nodes on the historical dense slices and switches larger ones to
	// the paged lazy store; StoreDense/StoreLazy force a mode. The two
	// stores are observationally equivalent.
	Store StoreMode
	// VCs is the number of virtual channels multiplexed over each
	// physical channel. Zero means 1 — the paper's single-FIFO-queue
	// channel model, byte-identical in behaviour and allocation to the
	// pre-VC network. With VCs >= 2 each physical channel becomes VCs
	// independent lanes with their own wait queues; selectors that
	// implement routing.VCPolicy (the dateline routers) steer worms
	// into class-partitioned lanes, which is what makes minimal
	// routing deadlock-free on tori. Selectors without a policy may
	// use any free lane (plain head-of-line-blocking relief — safe on
	// meshes, NOT a deadlock guarantee on tori).
	VCs int
}

// DefaultConfig returns the paper's baseline parameters: Ts=1.5 µs,
// Beta=0.003 µs, one-port.
func DefaultConfig() Config {
	return Config{Ts: 1.5, Beta: 0.003, Ports: 1}
}

func (c Config) hopDelay() float64 {
	if c.HopDelay > 0 {
		return c.HopDelay
	}
	return c.Beta
}

func (c Config) ports() int {
	if c.Ports > 0 {
		return c.Ports
	}
	return 1
}

func (c Config) vcs() int {
	if c.VCs > 0 {
		return c.VCs
	}
	return 1
}

func (c Config) validate() error {
	if c.Ts < 0 || c.Beta <= 0 || c.HopDelay < 0 {
		return fmt.Errorf("network: invalid timing config %+v", c)
	}
	if c.VCs < 0 {
		return fmt.Errorf("network: negative virtual channel count %d", c.VCs)
	}
	if c.DeadWait < 0 {
		return fmt.Errorf("network: negative dead-hop wait %g", c.DeadWait)
	}
	if c.Store < StoreAuto || c.Store > StoreLazy {
		return fmt.Errorf("network: invalid store mode %d", c.Store)
	}
	return nil
}

// Transfer describes one worm to inject. Exactly one routing mode is
// used: if Selector is nil the worm follows the unique dimension-order
// path between waypoints; otherwise the selector chooses among its
// candidates adaptively (first candidate with a free channel, else
// wait on the most preferred).
type Transfer struct {
	// Source is the injecting node.
	Source topology.NodeID
	// Waypoints are the delivery nodes in visit order; the worm
	// terminates at the last one. Must be non-empty.
	Waypoints []topology.NodeID
	// Length is the message length in flits (> 0).
	Length int
	// Selector routes between waypoints; nil means dimension-order.
	Selector routing.Selector
	// OnDeliver, if set, fires once per waypoint with the node and
	// the simulated time its tail flit arrived.
	OnDeliver func(node topology.NodeID, at sim.Time)
	// OnDone, if set, fires when the worm fully drains.
	OnDone func(at sim.Time)
	// OnDrop, if set, fires when the worm is aborted on a degraded
	// network (every admissible next hop dead and any DeadWait grace
	// expired). At most one of OnDone/OnDrop fires per transfer.
	OnDrop func(at sim.Time)
	// OnPath, if set, fires once when the worm retires — drained or
	// dropped — with the node sequence its header traversed and
	// whether the worm delivered. The slice is only valid during the
	// call (the worm recycles); copy it to retain it. The robustness
	// suite uses this to audit realized routes against fault sets.
	OnPath func(path []topology.NodeID, delivered bool)
	// Tag is free-form labelling for tracing and debugging.
	Tag string
}

// Network is the simulated interconnect. It is not safe for
// concurrent use; the discrete-event kernel is single-threaded by
// design.
type Network struct {
	topo topology.Topology
	mesh *topology.Mesh // non-nil when topo is a mesh
	sim  *sim.Simulator
	cfg  Config
	dor  routing.Selector
	// channels/ports are the dense store; nil when lazy is non-nil.
	// Accessor methods in store.go pick the live store, and the dense
	// hot paths pay only the accessors' nil test.
	channels []channelState
	ports    []portState
	lazy     *lazyStore
	lanes    int // lane count in either store
	// activeHead/activeCount track in-flight worms as an intrusive
	// list in send order (O(1) add/remove, no hashing; see worm).
	activeHead  *worm
	activeCount int
	injected    uint64
	finished    uint64

	// Hot-path caches of the Config accessors: hopDelay()/ports()
	// branch on every call, and the inner loops read them per hop.
	hop    float64
	beta   float64
	nports int
	// vcs is the virtual-channel lane count per physical channel; the
	// channel/statistics slices hold one entry per LANE, indexed
	// lane = channel·vcs + vc. With vcs == 1 (every mesh default) the
	// lane index IS the physical channel ID and nothing changes.
	vcs int

	// Fault state (health.go). health stays nil until the first
	// failure is injected, so the hot path pays one nil test and a
	// pristine network is byte- and allocation-identical to the
	// pre-fault implementation.
	health   *healthState
	deadWait float64
	parked   []*worm
	dropped  uint64

	// candScratch is the reusable next-hop candidate buffer advance
	// hands to HopAppender selectors. Safe to share across worms: each
	// advance call fully consumes the candidates before anything else
	// can route.
	candScratch []topology.NodeID

	// hopScratch is candScratch's channel-resolved twin: the buffer
	// advance hands to ChannelAppender selectors.
	hopScratch []routing.Hop

	// Occupancy accounting (see statistics.go).
	busyTime  []sim.Time
	busySince []sim.Time
	acquires  []uint64
}

type channelState struct {
	holder *worm
	queue  wormRing
}

type portState struct {
	inUse int
	queue wormRing
}

// New builds a network over topo driven by s. For mesh topologies a
// dimension-order selector is installed as the default router.
func New(s *sim.Simulator, topo topology.Topology, cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lanes := topo.ChannelSlots() * cfg.vcs()
	n := &Network{
		topo:     topo,
		sim:      s,
		cfg:      cfg,
		lanes:    lanes,
		hop:      cfg.hopDelay(),
		deadWait: cfg.DeadWait,
		beta:     cfg.Beta,
		nports:   cfg.ports(),
		vcs:      cfg.vcs(),
	}
	if cfg.Store.LazyFor(topo.Nodes()) {
		n.lazy = newLazyStore(lanes, topo.Nodes())
	} else {
		n.channels = make([]channelState, lanes)
		n.ports = make([]portState, topo.Nodes())
		n.busyTime = make([]sim.Time, lanes)
		n.busySince = make([]sim.Time, lanes)
		n.acquires = make([]uint64, lanes)
	}
	if m, ok := topo.(*topology.Mesh); ok {
		n.mesh = m
		if m.HasWrapLinks() && n.vcs > 1 {
			// On a torus with virtual channels the default router is
			// dateline dimension-order: the same minimal modular routes
			// as plain DOR, deadlock-free via the dateline VC classes.
			// A torus without actual wrap links (every extent < 3) has
			// no rings to protect and keeps plain DOR, so its worms may
			// spread over ALL lanes instead of the class-0 share.
			n.dor = routing.NewDatelineDOR(m)
		} else {
			n.dor = routing.NewDOR(m)
		}
	}
	return n, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(s *sim.Simulator, topo topology.Topology, cfg Config) *Network {
	n, err := New(s, topo, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Sim returns the driving simulator.
func (n *Network) Sim() *sim.Simulator { return n.sim }

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// Topology returns the simulated topology.
func (n *Network) Topology() topology.Topology { return n.topo }

// Injected returns the number of transfers accepted so far.
func (n *Network) Injected() uint64 { return n.injected }

// Finished returns the number of transfers fully drained so far.
func (n *Network) Finished() uint64 { return n.finished }

// InFlight returns the number of transfers accepted but not drained.
func (n *Network) InFlight() int { return n.activeCount }

// activeAdd pushes w onto the in-flight list.
func (n *Network) activeAdd(w *worm) {
	w.activeNext = n.activeHead
	if n.activeHead != nil {
		n.activeHead.activePrev = w
	}
	n.activeHead = w
	n.activeCount++
}

// activeRemove unlinks w from the in-flight list.
func (n *Network) activeRemove(w *worm) {
	if w.activePrev != nil {
		w.activePrev.activeNext = w.activeNext
	} else {
		n.activeHead = w.activeNext
	}
	if w.activeNext != nil {
		w.activeNext.activePrev = w.activePrev
	}
	w.activePrev, w.activeNext = nil, nil
	n.activeCount--
}

// Stuck returns descriptions of worms still in flight; useful for
// diagnosing simulated deadlock when the calendar drains while
// transfers remain.
func (n *Network) Stuck() []string {
	var out []string
	for w := n.activeHead; w != nil; w = w.activeNext {
		out = append(out, w.describe())
	}
	return out
}
