package network

import (
	"fmt"
	"sync"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// worm is the runtime state of one in-flight transfer.
//
// Worms are pooled process-wide: a drained worm returns to the free
// pool with its per-hop slices' capacity intact, so the saturation
// hot path recycles storage instead of re-growing it for every
// message. All of a worm's calendar entries are (Func, worm) records
// — the drain/deliver events consume their per-worm schedule through
// the rel/del cursors in fire order, which the calendar's (due, seq)
// ordering guarantees matches the order complete laid them out in.
type worm struct {
	net *Network
	t   *Transfer

	cur     topology.NodeID
	wpIdx   int // next waypoint to reach
	path    []topology.NodeID
	grants  []sim.Time           // grant time per hop (channel i = path[i]->path[i+1])
	chans   []topology.ChannelID // acquired channel LANES in order (channel·vcs + vc)
	deliver []int                // hop index (1-based node position) per waypoint
	relCur  int                  // next entry of chans to release (drain events)
	delCur  int                  // next entry of deliver to fire (delivery events)
	waiting topology.ChannelID   // channel lane whose queue the worm sits in, or -1
	started sim.Time             // injection request time
	portAt  sim.Time             // port grant time

	// parkToken is non-nil while the worm is parked awaiting a fault
	// recovery; it guards the park-timeout calendar record (see
	// health.go).
	parkToken *parkToken

	// vcPol is the worm's virtual-channel class policy, resolved once
	// at Send from its selector — and only on networks with more than
	// one VC, so the single-VC hot path never pays the assertion.
	vcPol routing.VCPolicy

	// sel is the worm's routing function (the transfer's, or the
	// network default), with its fast-path interfaces resolved once at
	// Send instead of once per advance: chApp is the channel-resolved
	// form every in-package selector offers, hopApp the node-only
	// append form, either nil when unimplemented. advance consults
	// chApp, then hopApp, then plain NextHops.
	sel    routing.Selector
	chApp  routing.ChannelAppender
	hopApp routing.HopAppender

	// activePrev/activeNext thread the network's in-flight list: an
	// intrusive doubly-linked list replaces the old map[*worm]bool,
	// which paid a pointer hash on every send and every retirement.
	activePrev, activeNext *worm
}

func (w *worm) describe() string {
	return fmt.Sprintf("worm %q src=%d cur=%d wp=%d/%d hops=%d waiting=%d",
		w.t.Tag, w.t.Source, w.cur, w.wpIdx, len(w.t.Waypoints), len(w.chans), w.waiting)
}

// wormSliceCap pre-sizes a fresh worm's per-hop slices: deep enough
// for a typical coded-path traversal of the paper's meshes, and a
// pooled worm keeps whatever larger capacity it grew to.
const wormSliceCap = 16

// wormPool is the process-wide worm free pool. It used to be a
// per-network free list, but studies build a fresh network each —
// a sweep or a saturation benchmark pays the full worm allocation
// ramp-up on every run. putWorm clears every reference a worm holds,
// so recycling across networks is safe, and sync.Pool's per-P caches
// keep Get/Put off any shared lock.
var wormPool = sync.Pool{New: func() any {
	return &worm{
		path:    make([]topology.NodeID, 0, wormSliceCap),
		grants:  make([]sim.Time, 0, wormSliceCap),
		chans:   make([]topology.ChannelID, 0, wormSliceCap),
		deliver: make([]int, 0, wormSliceCap),
	}
}}

// getWorm takes a worm off the free pool, which builds one with
// pre-sized slices when dry.
func (n *Network) getWorm() *worm {
	return wormPool.Get().(*worm)
}

// putWorm resets w (dropping its Transfer reference, keeping slice
// capacity) and returns it to the free pool. Only finishWorm and
// dropWorm may call it: by then every calendar record referencing w
// has fired — park timeouts reference a token, not the worm, exactly
// so a drop cannot race a stale timeout.
func (n *Network) putWorm(w *worm) {
	w.net = nil
	w.t = nil
	w.cur = 0
	w.wpIdx = 0
	w.path = w.path[:0]
	w.grants = w.grants[:0]
	w.chans = w.chans[:0]
	w.deliver = w.deliver[:0]
	w.relCur, w.delCur = 0, 0
	w.waiting = topology.InvalidChannel
	w.started, w.portAt = 0, 0
	w.parkToken = nil
	w.vcPol = nil
	w.sel, w.chApp, w.hopApp = nil, nil, nil
	w.activePrev, w.activeNext = nil, nil
	wormPool.Put(w)
}

// Prebuilt event bodies: the network schedules (func, worm) records,
// never closures, so the per-hop scheduling path does not allocate.
func requestPortEvent(arg any) { w := arg.(*worm); w.net.requestPort(w) }
func advanceEvent(arg any)     { w := arg.(*worm); w.net.advance(w) }

// releaseNextEvent frees the worm's next acquired channel in pipeline
// order. complete schedules these at nondecreasing times in channel
// order, so the cursor always names the channel this record meant.
func releaseNextEvent(arg any) {
	w := arg.(*worm)
	i := w.relCur
	w.relCur++
	w.net.release(w.chans[i])
}

// deliverNextEvent fires the worm's next waypoint delivery; the event
// fires at the scheduled (clamped) arrival time, so Now() is the
// delivery timestamp.
func deliverNextEvent(arg any) {
	w := arg.(*worm)
	i := w.delCur
	w.delCur++
	w.t.OnDeliver(w.t.Waypoints[i], w.net.sim.Now())
}

func releasePortEvent(arg any) { w := arg.(*worm); w.net.releasePort(w.t.Source) }

// finishWorm retires the worm when its tail fully drains. It fires at
// tdone with the largest sequence number of the worm's records, so
// recycling here cannot race an unfired release/delivery.
func finishWorm(arg any) {
	w := arg.(*worm)
	n := w.net
	n.activeRemove(w)
	n.finished++
	if w.t.OnDone != nil {
		w.t.OnDone(n.sim.Now())
	}
	if w.t.OnPath != nil {
		w.t.OnPath(w.path, true)
	}
	n.putWorm(w)
}

// Send validates t and schedules its injection at absolute time start.
// The worm first waits for an injection port at the source (FIFO),
// then pays the startup latency Ts, then walks its coded path.
func (n *Network) Send(start sim.Time, t *Transfer) error {
	if t.Length <= 0 {
		return fmt.Errorf("network: transfer %q has length %d", t.Tag, t.Length)
	}
	if len(t.Waypoints) == 0 {
		return fmt.Errorf("network: transfer %q has no waypoints", t.Tag)
	}
	prev := t.Source
	for i, wp := range t.Waypoints {
		if wp == prev {
			return fmt.Errorf("network: transfer %q repeats node %d at waypoint %d", t.Tag, wp, i)
		}
		if int(wp) < 0 || int(wp) >= n.topo.Nodes() {
			return fmt.Errorf("network: transfer %q waypoint %d out of range", t.Tag, wp)
		}
		prev = wp
	}
	if t.Selector == nil && n.dor == nil {
		return fmt.Errorf("network: transfer %q needs a selector on topology %s", t.Tag, n.topo.Name())
	}
	w := n.getWorm()
	w.net = n
	w.t = t
	w.cur = t.Source
	w.path = append(w.path, t.Source)
	w.waiting = topology.InvalidChannel
	w.started = start
	sel := t.Selector
	if sel == nil {
		sel = n.dor
	}
	w.sel = sel
	w.chApp, _ = sel.(routing.ChannelAppender)
	if w.chApp == nil {
		w.hopApp, _ = sel.(routing.HopAppender)
	}
	if n.vcs > 1 {
		w.vcPol, _ = sel.(routing.VCPolicy)
	}
	n.injected++
	n.activeAdd(w)
	n.sim.AtCall(start, requestPortEvent, w)
	return nil
}

// MustSend is Send for statically valid transfers; it panics on error.
func (n *Network) MustSend(start sim.Time, t *Transfer) {
	if err := n.Send(start, t); err != nil {
		panic(err)
	}
}

// requestPort claims an injection port at the worm's source or queues
// for one.
func (n *Network) requestPort(w *worm) {
	p := n.port(w.t.Source)
	if p.inUse < n.nports {
		p.inUse++
		n.grantPort(w)
		return
	}
	p.queue.Push(w)
}

// grantPort starts the startup latency; afterwards the header begins
// to walk.
func (n *Network) grantPort(w *worm) {
	w.portAt = n.sim.Now()
	n.sim.AfterCall(n.cfg.Ts, advanceEvent, w)
}

// releasePort returns the source's injection port and admits the next
// queued worm, if any.
func (n *Network) releasePort(node topology.NodeID) {
	p := n.port(node)
	if p.queue.Len() > 0 {
		n.grantPort(p.queue.Pop())
		return
	}
	p.inUse--
	if p.inUse < 0 {
		panic("network: port underflow")
	}
}

// advance moves the worm's header one hop, or completes the worm when
// the final waypoint is reached. Called at the moment the header sits
// at w.cur ready to move.
func (n *Network) advance(w *worm) {
	// Record any waypoint hit at the current node.
	for w.wpIdx < len(w.t.Waypoints) && w.cur == w.t.Waypoints[w.wpIdx] {
		w.deliver = append(w.deliver, len(w.chans))
		w.wpIdx++
	}
	if w.wpIdx == len(w.t.Waypoints) {
		n.complete(w)
		return
	}
	dst := w.t.Waypoints[w.wpIdx]
	h := n.health
	if h != nil && h.nodeDown[w.cur] {
		// The header sits at a node that failed under it: fail-stop.
		n.parkOrDrop(w)
		return
	}
	if w.chApp != nil {
		n.advanceChannels(w, dst, h)
		return
	}
	// Foreign selector: route through the node-append path when
	// offered (cached at Send), else the slice-returning form, and
	// resolve each candidate's channel from the endpoint pair. This
	// path keeps the non-adjacency guard — in-package selectors are
	// trusted (their coordinate walks cannot emit a non-neighbor).
	var cands []topology.NodeID
	if w.hopApp != nil {
		n.candScratch = w.hopApp.AppendNextHops(n.candScratch[:0], w.cur, dst)
		cands = n.candScratch
	} else {
		cands = w.sel.NextHops(w.cur, dst)
	}
	if len(cands) == 0 {
		panic(fmt.Sprintf("network: no route from %d to %d for %s", w.cur, dst, w.describe()))
	}
	// Adaptive choice: first candidate with a free lane (its VC-class
	// lanes in order; the whole channel when there is no policy). On a
	// degraded network (health non-nil) a hop over a dead channel or
	// into a dead node is not a candidate at all — this filter is the
	// re-route: an adaptive selector's remaining candidates are its
	// live admissible detours.
	var pick topology.NodeID
	pickLane := topology.InvalidChannel
	firstLive := -1
	for i, cand := range cands {
		ch := n.topo.Channel(w.cur, cand)
		if ch == topology.InvalidChannel {
			panic(fmt.Sprintf("network: router proposed non-adjacent hop %d -> %d", w.cur, cand))
		}
		if h != nil && (h.linkDown[ch] || h.nodeDown[cand]) {
			continue
		}
		if firstLive < 0 {
			firstLive = i
		}
		lo, hi := n.laneRange(w, cand, dst)
		base := int(ch) * n.vcs
		for l := lo; l < hi; l++ {
			// laneFree is the read-only probe: in lazy mode an untouched
			// lane's page stays unallocated until a worm actually takes it.
			if n.laneFree(topology.ChannelID(base + l)) {
				pick, pickLane = cand, topology.ChannelID(base+l)
				break
			}
		}
		if pickLane != topology.InvalidChannel {
			break
		}
	}
	if pickLane == topology.InvalidChannel {
		if firstLive < 0 {
			// Every admissible hop is dead: the worm cannot make
			// progress on the degraded network.
			n.parkOrDrop(w)
			return
		}
		// All live candidates busy: wait FIFO on the most preferred
		// live candidate's first permitted lane.
		cand := cands[firstLive]
		ch := n.topo.Channel(w.cur, cand)
		lo, _ := n.laneRange(w, cand, dst)
		lane := topology.ChannelID(int(ch)*n.vcs + lo)
		w.waiting = lane
		n.lane(lane).queue.Push(w)
		return
	}
	n.acquire(w, pick, pickLane)
}

// advanceChannels is advance's candidate loop over channel-resolved
// hops: the selector emits each candidate's directed channel during
// the coordinate walk it already performs (routing.ChannelAppender),
// so no candidate pays the endpoint-pair channel derivation. Same
// preference order, same adaptive first-free-lane choice, same
// fault filtering and FIFO wait as the generic loop above.
func (n *Network) advanceChannels(w *worm, dst topology.NodeID, h *healthState) {
	hops := w.chApp.AppendNextChannels(n.hopScratch[:0], w.cur, dst)
	n.hopScratch = hops
	if len(hops) == 0 {
		panic(fmt.Sprintf("network: no route from %d to %d for %s", w.cur, dst, w.describe()))
	}
	firstLive := -1
	for i := range hops {
		cand, ch := hops[i].Node, hops[i].Ch
		if h != nil && (h.linkDown[ch] || h.nodeDown[cand]) {
			continue
		}
		if firstLive < 0 {
			firstLive = i
		}
		lo, hi := n.laneRange(w, cand, dst)
		base := int(ch) * n.vcs
		for l := lo; l < hi; l++ {
			if n.laneFree(topology.ChannelID(base + l)) {
				n.acquire(w, cand, topology.ChannelID(base+l))
				return
			}
		}
	}
	if firstLive < 0 {
		n.parkOrDrop(w)
		return
	}
	cand, ch := hops[firstLive].Node, hops[firstLive].Ch
	lo, _ := n.laneRange(w, cand, dst)
	lane := topology.ChannelID(int(ch)*n.vcs + lo)
	w.waiting = lane
	n.lane(lane).queue.Push(w)
}

// laneRange returns the half-open lane range [lo, hi) within one
// physical channel's n.vcs lanes that w may occupy for the hop to
// next. Without a VC policy every lane is permitted (adaptive
// head-of-line-blocking relief); with one, the policy's classes
// partition the lanes and the hop's class selects its share. Should
// the network carry fewer lanes than the policy has classes, the
// partition cannot be honoured and all lanes are permitted — the
// 1-VC torus configuration the deadlock regression test documents.
func (n *Network) laneRange(w *worm, next, dst topology.NodeID) (int, int) {
	if n.vcs == 1 || w.vcPol == nil {
		return 0, n.vcs
	}
	classes := w.vcPol.VCClasses()
	if n.vcs < classes {
		return 0, n.vcs
	}
	c := w.vcPol.VCClass(w.cur, next, dst)
	return c * n.vcs / classes, (c + 1) * n.vcs / classes
}

// acquire grants channel ch to w and schedules the header's arrival at
// the next node, one hop delay out.
func (n *Network) acquire(w *worm, next topology.NodeID, ch topology.ChannelID) {
	st := n.lane(ch)
	if st.holder != nil {
		panic("network: acquiring a held channel")
	}
	if h := n.health; h != nil {
		// The robustness suite's always-on invariant: no worm ever
		// acquires a lane of a dead channel or a lane into a dead node.
		if h.linkDown[int(ch)/n.vcs] || h.nodeDown[next] {
			panic(fmt.Sprintf("network: acquiring dead lane %d into node %d", ch, next))
		}
	}
	st.holder = w
	n.noteAcquire(ch)
	w.waiting = topology.InvalidChannel
	w.grants = append(w.grants, n.sim.Now())
	w.chans = append(w.chans, ch)
	w.path = append(w.path, next)
	w.cur = next
	n.sim.AfterCall(n.hop, advanceEvent, w)
}

// release frees channel ch and grants it to the head of its queue.
func (n *Network) release(ch topology.ChannelID) {
	st := n.lane(ch)
	if st.holder == nil {
		panic("network: releasing a free channel")
	}
	st.holder = nil
	n.noteRelease(ch)
	// Keep admitting waiters until one takes the channel or the queue
	// empties: an adaptive worm at the head may grab a different free
	// channel when re-routed, and the waiters behind it must not be
	// stranded on a free channel.
	for st.holder == nil && st.queue.Len() > 0 {
		next := st.queue.Pop()
		if next.waiting != ch {
			panic("network: queued worm not waiting on this channel")
		}
		next.waiting = topology.InvalidChannel
		n.advance(next)
	}
}

// complete fires when the header has arrived at the final waypoint.
// The body drains at Beta per flit; channel i releases and waypoint
// deliveries fire in pipeline order behind the tail.
func (n *Network) complete(w *worm) {
	now := n.sim.Now()
	beta := n.beta
	drain := float64(w.t.Length) * beta
	tdone := now + drain
	hops := len(w.chans)

	// Tail leaves channel i at tdone - (hops-1-i)*Beta: once the last
	// channel is granted the body streams freely, one flit per Beta
	// per channel, and nothing drained earlier because wormhole
	// back-pressure held all flits in place while the header stalled.
	// Times are nondecreasing in i, so the cursor-driven records fire
	// against chans in order.
	for i := range w.chans {
		at := tdone - float64(hops-1-i)*beta
		if at < now {
			at = now
		}
		n.sim.AtCall(at, releaseNextEvent, w)
	}

	// A waypoint reached after hop h receives its tail when channel
	// h-1 finishes, i.e. at tdone - (hops-h)*Beta.
	if w.t.OnDeliver != nil {
		for _, h := range w.deliver {
			at := tdone - float64(hops-h)*beta
			if at < now {
				at = now
			}
			n.sim.AtCall(at, deliverNextEvent, w)
		}
	}

	// The tail leaves the source when it enters the first channel.
	portFree := tdone - float64(hops-1)*beta
	if portFree < now {
		portFree = now
	}
	n.sim.AtCall(portFree, releasePortEvent, w)

	n.sim.AtCall(tdone, finishWorm, w)
}
