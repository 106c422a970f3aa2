package network

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// Storage model. The network's mutable state — one channelState per
// virtual-channel lane, one portState per node, and the per-lane
// occupancy counters — is indexed the same way in both modes, but
// lives in one of two stores:
//
//   - dense: flat slices sized lanes/nodes up front, exactly the
//     pre-PR-7 layout. Every access is a direct index; pristine runs
//     are byte- and allocation-identical to the historical network.
//   - lazy: page tables of fixed-size pages allocated on first write
//     intent. A light-load broadcast touches a vanishing fraction of
//     a million-node network's lanes, so memory tracks contention,
//     not topology size.
//
// The two stores are observationally equivalent — same grants, same
// queueing, same statistics — which the dense-vs-lazy differential
// tests pin on random shapes. Read-only probes (is this lane free?
// does this lane have waiters?) never allocate a page: an untouched
// lane is by definition free and queueless.

// StoreMode selects the network's state-allocation model.
type StoreMode int

const (
	// StoreAuto picks dense below LazyStoreThreshold nodes and lazy at
	// or above it. It is the zero value, so existing configurations
	// keep their historical dense behaviour at every existing scale.
	StoreAuto StoreMode = iota
	// StoreDense forces flat up-front slices.
	StoreDense
	// StoreLazy forces paged allocate-on-first-contention state.
	StoreLazy
)

// LazyStoreThreshold is the node count at which StoreAuto switches to
// the lazy store. No golden-pinned scenario reaches it: every network
// the goldens cover stays dense and byte-identical.
const LazyStoreThreshold = 1 << 16

func (m StoreMode) String() string {
	switch m {
	case StoreAuto:
		return "auto"
	case StoreDense:
		return "dense"
	case StoreLazy:
		return "lazy"
	}
	return "invalid"
}

// LazyFor reports whether the mode resolves to the lazy store on a
// network of nodes nodes.
func (m StoreMode) LazyFor(nodes int) bool {
	switch m {
	case StoreLazy:
		return true
	case StoreDense:
		return false
	}
	return nodes >= LazyStoreThreshold
}

const (
	pageBits = 9 // 512 entries per page
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// lanePage co-locates a page of lane state with the same lanes'
// occupancy counters, so an acquire touches one page, not four
// parallel tables.
type lanePage struct {
	ch        [pageSize]channelState
	busyTime  [pageSize]sim.Time
	busySince [pageSize]sim.Time
	acquires  [pageSize]uint64
}

type portPage struct {
	ports [pageSize]portState
}

// lazyStore is the paged store: page pointer tables sized at New
// (8 bytes per 512 lanes/nodes), pages allocated on first write
// intent.
type lazyStore struct {
	lanePages []*lanePage
	portPages []*portPage
	// livePages counts allocated pages of both kinds; the scale tests
	// assert it stays far below the table lengths under light load.
	livePages int64
}

func newLazyStore(lanes, nodes int) *lazyStore {
	return &lazyStore{
		lanePages: make([]*lanePage, (lanes+pageMask)>>pageBits),
		portPages: make([]*portPage, (nodes+pageMask)>>pageBits),
	}
}

func (s *lazyStore) lanePageFor(lane int) *lanePage {
	p := s.lanePages[lane>>pageBits]
	if p == nil {
		p = &lanePage{}
		s.lanePages[lane>>pageBits] = p
		s.livePages++
	}
	return p
}

// port returns node's injection-port state, allocating its page in
// lazy mode. Callers always carry write intent (claiming or releasing
// a port), so allocation here is never wasted.
func (n *Network) port(node topology.NodeID) *portState {
	if n.lazy == nil {
		return &n.ports[node]
	}
	s := n.lazy
	p := s.portPages[int(node)>>pageBits]
	if p == nil {
		p = &portPage{}
		s.portPages[int(node)>>pageBits] = p
		s.livePages++
	}
	return &p.ports[int(node)&pageMask]
}

// lane returns lane's channel state with write intent (acquire, queue
// push, release), allocating its page in lazy mode.
func (n *Network) lane(lane topology.ChannelID) *channelState {
	if n.lazy == nil {
		return &n.channels[lane]
	}
	return &n.lazy.lanePageFor(int(lane)).ch[int(lane)&pageMask]
}

// laneFree reports whether lane is unheld WITHOUT allocating: a lane
// whose page was never written cannot have a holder. This is the
// adaptive probe in advance — the one access that scans lanes a worm
// may never use, and the reason light-load lazy runs stay sparse.
func (n *Network) laneFree(lane topology.ChannelID) bool {
	if n.lazy == nil {
		return n.channels[lane].holder == nil
	}
	p := n.lazy.lanePages[int(lane)>>pageBits]
	return p == nil || p.ch[int(lane)&pageMask].holder == nil
}

// laneIfTouched returns lane's state if its page exists and nil
// otherwise, never allocating. Fault kicks use it: an untouched lane
// has no waiters to kick.
func (n *Network) laneIfTouched(lane topology.ChannelID) *channelState {
	if n.lazy == nil {
		return &n.channels[lane]
	}
	p := n.lazy.lanePages[int(lane)>>pageBits]
	if p == nil {
		return nil
	}
	return &p.ch[int(lane)&pageMask]
}

// LazyStore reports whether the network allocates state lazily, and
// how many pages are currently live (0 in dense mode).
func (n *Network) LazyStore() (lazy bool, livePages int) {
	if n.lazy == nil {
		return false, 0
	}
	return true, int(n.lazy.livePages)
}
