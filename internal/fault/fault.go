// Package fault provides deterministic fault injection for the
// wormhole network. A Plan is a schedule of link/node down/up events,
// validated up front and applied through the simulation calendar —
// faults are ordinary (due, seq)-ordered events interleaving with
// worm traffic, so a faulted run is exactly as reproducible as a
// pristine one: bit-identical output for any worker count and for
// either calendar implementation.
//
// The generators (RandomLinks, RandomNodes, Churn) derive everything
// from an explicit seed, and the link generators share one canonical
// seed-determined permutation of the topology's undirected links:
// RandomLinks(m, seed, k) fails the FIRST k links of that
// permutation, so plans of the same (m, seed) nest — a larger k is a
// strict superset of a smaller one. That nesting is what makes
// delivery coverage provably monotone non-increasing along the
// failed-links axis for deterministic routing, and the robustness
// suite asserts exactly that.
package fault

import (
	"fmt"
	"math"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Kind classifies a fault event.
type Kind uint8

const (
	// LinkDown takes one directed physical channel down.
	LinkDown Kind = iota
	// LinkUp restores one directed physical channel.
	LinkUp
	// NodeDown takes a node down: nothing routes into or out of it.
	NodeDown
	// NodeUp restores a node.
	NodeUp
)

// String returns the kind's plan-notation name.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case NodeDown:
		return "node-down"
	case NodeUp:
		return "node-up"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one scheduled fault: a kind, a firing time and its target
// (Channel for link kinds, Node for node kinds).
type Event struct {
	Kind    Kind
	At      sim.Time
	Channel topology.ChannelID
	Node    topology.NodeID
}

// Plan is a schedule of fault events. The zero value is a valid empty
// plan; applying it schedules nothing and leaves the network's
// fault machinery entirely unengaged (pristine runs stay
// byte-identical). Same-time events fire in slice order.
type Plan struct {
	Events []Event
}

// Empty reports whether the plan schedules nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Validate checks every event against topo: known kind, finite
// non-negative time, and a target inside the topology's ID spaces.
// Link events are range-checked against ChannelSlots; a slot that
// carries no physical link (a mesh edge) is accepted and harmless —
// nothing ever routes over it.
func (p *Plan) Validate(topo topology.Topology) error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		if math.IsNaN(e.At) || math.IsInf(e.At, 0) || e.At < 0 {
			return fmt.Errorf("fault: event %d (%s) at invalid time %g", i, e.Kind, e.At)
		}
		switch e.Kind {
		case LinkDown, LinkUp:
			if int(e.Channel) < 0 || int(e.Channel) >= topo.ChannelSlots() {
				return fmt.Errorf("fault: event %d (%s) channel %d out of range [0,%d)",
					i, e.Kind, e.Channel, topo.ChannelSlots())
			}
		case NodeDown, NodeUp:
			if int(e.Node) < 0 || int(e.Node) >= topo.Nodes() {
				return fmt.Errorf("fault: event %d (%s) node %d out of range [0,%d)",
					i, e.Kind, e.Node, topo.Nodes())
			}
		default:
			return fmt.Errorf("fault: event %d has unknown kind %d", i, uint8(e.Kind))
		}
	}
	return nil
}

// applied carries one scheduled event to its firing; the records are
// built once at Apply time, so firing allocates nothing.
type applied struct {
	n *network.Network
	e Event
}

func fire(arg any) {
	a := arg.(*applied)
	switch a.e.Kind {
	case LinkDown:
		a.n.FailLink(a.e.Channel)
	case LinkUp:
		a.n.RestoreLink(a.e.Channel)
	case NodeDown:
		a.n.FailNode(a.e.Node)
	case NodeUp:
		a.n.RestoreNode(a.e.Node)
	}
}

// Apply validates the plan against n's topology and schedules every
// event on n's calendar. Call it before the simulation runs (events
// must not be in the simulator's past). An empty plan schedules
// nothing.
func (p *Plan) Apply(n *network.Network) error {
	if p.Empty() {
		return nil
	}
	if err := p.Validate(n.Topology()); err != nil {
		return err
	}
	s := n.Sim()
	for i := range p.Events {
		e := p.Events[i]
		if e.At < s.Now() {
			return fmt.Errorf("fault: event %d (%s) at %g is in the simulator's past (now %g)",
				i, e.Kind, e.At, s.Now())
		}
		s.AtCall(e.At, fire, &applied{n: n, e: e})
	}
	return nil
}

// Merge concatenates plans into one. Same-time events keep the
// argument order.
func Merge(plans ...*Plan) *Plan {
	out := &Plan{}
	for _, p := range plans {
		if p != nil {
			out.Events = append(out.Events, p.Events...)
		}
	}
	return out
}

// RestoredAfter returns a copy of p with, for every Down event, the
// matching Up event appended delay µs after it — turning a static
// fault set into a transient one.
func RestoredAfter(p *Plan, delay sim.Time) *Plan {
	out := &Plan{Events: append([]Event(nil), p.Events...)}
	for _, e := range p.Events {
		switch e.Kind {
		case LinkDown:
			out.Events = append(out.Events, Event{Kind: LinkUp, At: e.At + delay, Channel: e.Channel})
		case NodeDown:
			out.Events = append(out.Events, Event{Kind: NodeUp, At: e.At + delay, Node: e.Node})
		}
	}
	return out
}

// Link is one undirected physical link of a mesh or torus, identified
// by its endpoints with A < B.
type Link struct {
	A, B topology.NodeID
}

// Links enumerates the undirected physical links of m in canonical
// order: ascending by lower endpoint, then by that node's adjacency
// order. Wraparound links appear once, at their lower endpoint.
func Links(m *topology.Mesh) []Link {
	var out []Link
	buf := make([]topology.NodeID, 0, 2*m.NDims())
	for id := 0; id < m.Nodes(); id++ {
		from := topology.NodeID(id)
		// AppendNeighbors (same order as Adjacent) keeps implicit
		// meshes table-free and reuses one neighbor buffer either way.
		buf = m.AppendNeighbors(from, buf[:0])
		for _, to := range buf {
			if to > from {
				out = append(out, Link{A: from, B: to})
			}
		}
	}
	return out
}

// linkPerm returns the canonical seed-determined permutation of m's
// undirected links that every link generator draws from.
func linkPerm(m *topology.Mesh, seed uint64) []Link {
	links := Links(m)
	perm := sim.NewRNG(seed, 97).Perm(len(links))
	out := make([]Link, len(links))
	for i, j := range perm {
		out[i] = links[j]
	}
	return out
}

// downBoth appends LinkDown events for both directed channels of l.
func downBoth(p *Plan, m *topology.Mesh, l Link, at sim.Time) {
	p.Events = append(p.Events,
		Event{Kind: LinkDown, At: at, Channel: m.Channel(l.A, l.B)},
		Event{Kind: LinkDown, At: at, Channel: m.Channel(l.B, l.A)},
	)
}

// RandomLinks fails the first k links of the seed-determined
// permutation of m's undirected links (both directed channels) at
// time at. Plans of the same (m, seed) nest: a larger k yields a
// strict superset of a smaller k's fault set. k may be 0 (an empty
// plan); k beyond the link count errors.
func RandomLinks(m *topology.Mesh, seed uint64, k int, at sim.Time) (*Plan, error) {
	if k < 0 {
		return nil, fmt.Errorf("fault: negative link count %d", k)
	}
	perm := linkPerm(m, seed)
	if k > len(perm) {
		return nil, fmt.Errorf("fault: %d links requested, %s has %d", k, m.Name(), len(perm))
	}
	p := &Plan{}
	for _, l := range perm[:k] {
		downBoth(p, m, l, at)
	}
	return p, nil
}

// RandomNodes fails k distinct seed-chosen nodes of m at time at,
// never choosing a node in exclude (a broadcast source, say).
func RandomNodes(m *topology.Mesh, seed uint64, k int, at sim.Time, exclude ...topology.NodeID) (*Plan, error) {
	if k < 0 {
		return nil, fmt.Errorf("fault: negative node count %d", k)
	}
	excluded := make(map[topology.NodeID]bool, len(exclude))
	for _, id := range exclude {
		excluded[id] = true
	}
	if k > m.Nodes()-len(excluded) {
		return nil, fmt.Errorf("fault: %d nodes requested, %s has %d eligible", k, m.Name(), m.Nodes()-len(excluded))
	}
	perm := sim.NewRNG(seed, 131).Perm(m.Nodes())
	p := &Plan{}
	for _, j := range perm {
		if len(p.Events) == k {
			break
		}
		id := topology.NodeID(j)
		if excluded[id] {
			continue
		}
		p.Events = append(p.Events, Event{Kind: NodeDown, At: at, Node: id})
	}
	return p, nil
}

// Churn builds a transient-fault plan: strikes waves of k fresh link
// failures, wave i striking at time at+i·period and recovering
// upAfter µs later. Waves walk consecutive windows of the canonical
// link permutation (wrapping around), so no wave repeats a link
// within itself as long as k does not exceed the link count.
func Churn(m *topology.Mesh, seed uint64, k int, at, upAfter, period sim.Time, strikes int) (*Plan, error) {
	if k < 0 {
		return nil, fmt.Errorf("fault: negative link count %d", k)
	}
	if strikes < 1 {
		return nil, fmt.Errorf("fault: churn needs at least one strike, got %d", strikes)
	}
	if upAfter <= 0 || period <= 0 {
		return nil, fmt.Errorf("fault: churn needs positive up-after (%g) and period (%g)", upAfter, period)
	}
	perm := linkPerm(m, seed)
	if k > len(perm) {
		return nil, fmt.Errorf("fault: %d links per strike, %s has %d", k, m.Name(), len(perm))
	}
	p := &Plan{}
	for i := 0; i < strikes; i++ {
		t := at + sim.Time(i)*period
		wave := &Plan{}
		for j := 0; j < k; j++ {
			downBoth(wave, m, perm[(i*k+j)%len(perm)], t)
		}
		p = Merge(p, RestoredAfter(wave, upAfter))
	}
	return p, nil
}
