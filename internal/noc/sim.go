package noc

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/topo"
)

// Switching selects the forwarding discipline of the routers.
type Switching int

const (
	// StoreAndForward retransmits a packet only after it has fully
	// arrived at a router.
	StoreAndForward Switching = iota
	// CutThrough pipelines: the next link may start forwarding as soon
	// as the head flit arrives, one flit time after the upstream link
	// started, while the tail constrains the downstream completion —
	// the latency model of wormhole/virtual-cut-through networks with
	// ample buffering (the paper's routers; deadlock handled by escape
	// channels [3] / resource ordering [5]).
	CutThrough
)

// String names the switching mode.
func (s Switching) String() string {
	if s == CutThrough {
		return "cut-through"
	}
	return "store-and-forward"
}

// Config tunes a simulation run. Rates are in Mb/s = bits/µs, times in µs.
type Config struct {
	// PacketBits is the packet size; all flows use fixed-size packets.
	// Zero means 2048 bits.
	PacketBits float64
	// FlitBits is the flit size used by CutThrough switching. Zero
	// means 128 bits.
	FlitBits float64
	// Horizon is the simulated duration in µs. Zero means 500 µs.
	Horizon float64
	// Warmup discards latency/throughput samples injected before this
	// time (µs), letting queues reach steady state. Zero keeps all.
	Warmup float64
	// Switching selects store-and-forward (default) or cut-through.
	Switching Switching
	// BufferPackets bounds each link's input queue; a link refuses to
	// accept a packet whose *next* hop's queue is full, modelling
	// credit-based backpressure. Zero means unbounded buffers. With
	// finite buffers, routings whose channel dependency graph is cyclic
	// (see internal/deadlock) can genuinely deadlock; Stats.Stalled
	// reports packets frozen at the horizon.
	BufferPackets int
	// RouterPJPerBit is the router datapath energy (crossbar traversal
	// plus arbitration) charged per bit each time a router starts
	// forwarding a packet onto a link. Zero means 0.5 pJ/bit, a
	// 45 nm-class estimate. Feeds Stats.Energy.RouterNJ.
	RouterPJPerBit float64
	// BufferPJPerBit is the input-buffer energy (one write plus one
	// read) charged per bit when a transit packet is queued at a router.
	// Source-side NIC queues are not router buffers and are free. Zero
	// means 0.3 pJ/bit. Feeds Stats.Energy.BufferNJ.
	BufferPJPerBit float64
}

func (c *Config) setDefaults() {
	if c.PacketBits == 0 {
		c.PacketBits = 2048
	}
	if c.FlitBits == 0 {
		c.FlitBits = 128
	}
	if c.Horizon == 0 {
		c.Horizon = 500
	}
	if c.RouterPJPerBit == 0 {
		c.RouterPJPerBit = 0.5
	}
	if c.BufferPJPerBit == 0 {
		c.BufferPJPerBit = 0.3
	}
}

// packet is one in-flight packet, held in the simulator's freelist arena
// and addressed by int32 handle. The historical engine allocated a fresh
// packet per hop; the arena packet is advanced in place instead (the field
// values at each hop are identical).
type packet struct {
	flow     int32   // index into the routing's flows
	hop      int32   // next path hop to traverse
	injected float64 // injection time
	bits     float64
	// prevDone is the time the packet's tail cleared the previous link;
	// cut-through uses it to constrain downstream completions.
	prevDone float64
}

// packetArena is the freelist packet pool. Handles of delivered packets
// are recycled; the backing array is retained across Reset, so a warmed
// simulator never allocates per packet.
type packetArena struct {
	packets []packet
	free    []int32
}

func (a *packetArena) reset() {
	a.packets = a.packets[:0]
	a.free = a.free[:0]
}

func (a *packetArena) alloc() int32 {
	if n := len(a.free); n > 0 {
		h := a.free[n-1]
		a.free = a.free[:n-1]
		return h
	}
	a.packets = append(a.packets, packet{})
	return int32(len(a.packets) - 1)
}

func (a *packetArena) release(h int32) { a.free = append(a.free, h) }

func (a *packetArena) at(h int32) *packet { return &a.packets[h] }

// numClasses is the number of virtual channels per physical link: class 0
// is the escape channel, class 1 the adaptive one (internal/deadlock).
// Runs without a class assignment use class 0 only.
const numClasses = 2

// linkState is the per-link serialization state. Queues, buffers and
// blocked-upstream lists are per virtual channel; the physical serializer
// (busy flag, frequency) is shared.
type linkState struct {
	freq     float64 // assigned DVFS frequency (Mb/s); 0 = unused link
	busy     bool
	busyTime float64
	queues   [numClasses]fifo[int32]
	// reserved counts in-flight packets that have claimed a buffer slot
	// but not yet arrived (finite-buffer mode).
	reserved [numClasses]int
	// relayQueued counts queued transit packets (hop > 0): only these
	// occupy the router's finite buffer; freshly injected packets wait
	// in the source NIC's unbounded queue.
	relayQueued [numClasses]int
	// waiters lists upstream link ids blocked on this VC's buffer. The
	// backing arrays circulate through the simulator's waiter pool.
	waiters [numClasses][]int32
}

func (ls *linkState) queuedPackets() int {
	n := 0
	for c := 0; c < numClasses; c++ {
		n += ls.queues[c].len()
	}
	return n
}

// Simulator replays a routing as discrete packet traffic. It is rebindable:
// Reset (or Workspace.Simulator) points it at a new routing while reusing
// every internal buffer — event heap, packet arena, per-link queues and
// the precompiled path tables. A Simulator is not safe for concurrent use.
type Simulator struct {
	routing route.Routing
	model   power.Model
	cfg     Config
	// tp is the routing's platform (the mesh itself on mesh routings);
	// every link-id and coordinate lookup goes through it, so the engine
	// replays torus and circulant routings unchanged.
	tp      topo.Topology
	links   []linkState
	tracer  *Tracer
	observe func(Delivery)

	// Pooled per-component energy accumulators (nJ), copied into the
	// Stats.Energy slab at finalize. linkSrc maps each used link id to
	// the CoordIndex of its transmitting router, precomputed at Reset so
	// charging router energy costs one flat-slice add per transmission.
	routerE []float64
	bufferE []float64
	linkSrc []int32

	// Flat per-flow path tables, built once per Reset: flow f's hop h
	// uses link pathLink[flowOff[f]+h] on VC class pathClass[flowOff[f]+h].
	flowOff   []int32
	pathLink  []int32
	pathClass []uint8
	// period is each flow's packet inter-injection time (µs).
	period []float64

	q eventQueue
	// linkLane maps each used link id to its completion lane (one per
	// distinct frequency, freqLanes of them, at most maxLanes) or noLane.
	// Cut-through head arrivals use a second set of lanes,
	// freqLanes+linkLane[id].
	linkLane  []int8
	freqLanes int

	// Dense per-communication delivery accumulators: flow f delivers
	// into comms[flowSlot[f]], the communication with ID commIDs[slot].
	// finalize copies them into Stats.PerComm once per run.
	flowSlot []int32
	comms    []CommStats
	commIDs  []int
	slotOf   map[int]int32

	arena packetArena
	// loads is the Reset-time scratch for the routing's analytic loads.
	loads []float64
	// waiterPool recycles drained waiter lists (finite-buffer mode).
	waiterPool [][]int32

	bound bool // a successful New/Reset has configured the simulator
	ran   bool // Run consumed the current binding
}

// AssignClasses installs a per-hop virtual-channel schedule, e.g. the
// escape-channel assignment of internal/deadlock (Assignment.Classes).
// Each flow's slice must cover its path; classes are 0 (escape) or 1
// (adaptive). Call before Run; pass nil to revert to single-class
// operation. Reset reverts to single-class operation too.
func (s *Simulator) AssignClasses(classes [][]int) error {
	if classes == nil {
		for i := range s.pathClass {
			s.pathClass[i] = 0
		}
		return nil
	}
	if len(classes) != len(s.routing.Flows) {
		return fmt.Errorf("noc: %d class vectors for %d flows", len(classes), len(s.routing.Flows))
	}
	for f, cs := range classes {
		if len(cs) != len(s.routing.Flows[f].Path) {
			return fmt.Errorf("noc: flow %d: %d classes for %d hops", f, len(cs), len(s.routing.Flows[f].Path))
		}
		for h, c := range cs {
			if c < 0 || c >= numClasses {
				return fmt.Errorf("noc: flow %d hop %d: class %d out of range", f, h, c)
			}
		}
	}
	for f, cs := range classes {
		off := s.flowOff[f]
		for h, c := range cs {
			s.pathClass[off+int32(h)] = uint8(c)
		}
	}
	return nil
}

// New prepares a simulator for the routing: per-link DVFS frequencies are
// assigned by quantizing the routing's analytic loads under the model,
// exactly as the system would configure the links. An error is returned
// when the routing is infeasible (some load above the top frequency) —
// such routings count as failures in the paper and have no operating
// point to simulate. Multi-trial callers should pool one simulator via
// Workspace instead of calling New per trial.
func New(r route.Routing, model power.Model, cfg Config) (*Simulator, error) {
	s := &Simulator{}
	if err := s.Reset(r, model, cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rebinds the simulator to a routing, model and configuration,
// reusing all internal storage — the pooling hook behind Workspace. Any
// attached Tracer, delivery observer and class assignment are detached
// (the simulator starts from the same clean slate New gives). On error
// the simulator is left unbound; Reset again before Run. The previous
// run's Stats remain valid: they share no simulator memory.
func (s *Simulator) Reset(r route.Routing, model power.Model, cfg Config) error {
	cfg.setDefaults()
	s.bound, s.ran = false, false
	s.tracer, s.observe = nil, nil

	tp := r.Topology()
	if tp == nil {
		return fmt.Errorf("noc: routing has no platform")
	}
	s.tp = tp

	// Per-link state: grow to the platform's link-id space and clear,
	// keeping queue and waiter capacities.
	n := tp.LinkIDSpace()
	if cap(s.links) < n {
		s.links = make([]linkState, n)
	}
	s.links = s.links[:n]
	for i := range s.links {
		ls := &s.links[i]
		ls.freq, ls.busy, ls.busyTime = 0, false, 0
		for c := 0; c < numClasses; c++ {
			ls.queues[c].reset()
			ls.reserved[c], ls.relayQueued[c] = 0, 0
			if ls.waiters[c] != nil {
				s.waiterPool = append(s.waiterPool, ls.waiters[c][:0])
				ls.waiters[c] = nil
			}
		}
	}
	s.arena.reset()

	// Energy accumulators: grow to the platform and clear.
	cores := tp.NumCores()
	if cap(s.routerE) < cores {
		s.routerE = make([]float64, cores)
	}
	s.routerE = s.routerE[:cores]
	for i := range s.routerE {
		s.routerE[i] = 0
	}
	if cap(s.bufferE) < n {
		s.bufferE = make([]float64, n)
		s.linkSrc = make([]int32, n)
	}
	s.bufferE, s.linkSrc = s.bufferE[:n], s.linkSrc[:n]
	for i := range s.bufferE {
		s.bufferE[i] = 0
		s.linkSrc[i] = -1
	}

	// DVFS operating point from the analytic loads.
	s.loads = r.LoadsInto(s.loads)
	for id, load := range s.loads {
		if load == 0 {
			continue
		}
		f, err := model.Quantize(load)
		if err != nil {
			return fmt.Errorf("noc: link %v: %w", tp.LinkByID(id), err)
		}
		s.links[id].freq = f
		s.linkSrc[id] = int32(tp.CoordIndex(tp.LinkByID(id).From))
	}
	s.assignLanes(cfg.Switching)

	// Precompile each flow's path to flat link-id/class tables and its
	// injection period.
	nf := len(r.Flows)
	if cap(s.flowOff) < nf+1 {
		s.flowOff = make([]int32, 0, nf+1)
	}
	if cap(s.period) < nf {
		s.period = make([]float64, 0, nf)
	}
	s.flowOff, s.period = s.flowOff[:0], s.period[:0]
	s.pathLink, s.pathClass = s.pathLink[:0], s.pathClass[:0]
	off := int32(0)
	for _, fl := range r.Flows {
		s.flowOff = append(s.flowOff, off)
		s.period = append(s.period, cfg.PacketBits/fl.Comm.Rate)
		for _, l := range fl.Path {
			s.pathLink = append(s.pathLink, int32(tp.LinkID(l)))
			s.pathClass = append(s.pathClass, 0)
			off++
		}
	}
	s.flowOff = append(s.flowOff, off)
	s.assignCommSlots(r.Flows)

	s.routing, s.model, s.cfg = r, model, cfg
	s.bound = true
	return nil
}

// assignLanes maps every used link to the completion lane of its
// frequency, in order of first appearance by link id, and sizes the
// event queue: one lane per frequency, doubled under cut-through for the
// head arrivals. Frequencies past the first maxLanes get noLane.
func (s *Simulator) assignLanes(sw Switching) {
	if cap(s.linkLane) < len(s.links) {
		s.linkLane = make([]int8, len(s.links))
	}
	s.linkLane = s.linkLane[:len(s.links)]
	var freqs [maxLanes]float64
	s.freqLanes = 0
	for id := range s.links {
		s.linkLane[id] = noLane
		f := s.links[id].freq
		if f == 0 {
			continue
		}
		for l := 0; l < s.freqLanes; l++ {
			if freqs[l] == f {
				s.linkLane[id] = int8(l)
				break
			}
		}
		if s.linkLane[id] == noLane && s.freqLanes < maxLanes {
			freqs[s.freqLanes] = f
			s.linkLane[id] = int8(s.freqLanes)
			s.freqLanes++
		}
	}
	if sw == CutThrough {
		s.q.reset(2 * s.freqLanes)
	} else {
		s.q.reset(s.freqLanes)
	}
}

// assignCommSlots gives every communication a dense accumulator slot, in
// order of first appearance among the flows, and sums each one's
// requested rate over its flows in flow order.
func (s *Simulator) assignCommSlots(flows []route.Flow) {
	if s.slotOf == nil {
		s.slotOf = make(map[int]int32)
	}
	clear(s.slotOf)
	s.flowSlot, s.comms, s.commIDs = s.flowSlot[:0], s.comms[:0], s.commIDs[:0]
	for _, fl := range flows {
		slot, ok := s.slotOf[fl.Comm.ID]
		if !ok {
			slot = int32(len(s.comms))
			s.slotOf[fl.Comm.ID] = slot
			s.comms = append(s.comms, CommStats{})
			s.commIDs = append(s.commIDs, fl.Comm.ID)
		}
		s.comms[slot].RequestedRate += fl.Comm.Rate
		s.flowSlot = append(s.flowSlot, slot)
	}
}

// hops returns flow f's path length.
func (s *Simulator) hops(f int32) int32 { return s.flowOff[f+1] - s.flowOff[f] }

// Run executes the simulation until the horizon and returns the collected
// statistics. Run may be called once per New or Reset; call Reset (or go
// through Workspace.Simulator) between runs. The returned Stats owns its
// memory and stays valid across later Resets.
func (s *Simulator) Run() *Stats {
	if !s.bound || s.ran {
		panic("noc: Run needs a fresh New or Reset (one Run per binding)")
	}
	s.ran = true
	st := &Stats{
		Horizon:         s.cfg.Horizon,
		Warmup:          s.cfg.Warmup,
		LinkUtilization: make([]float64, len(s.links)),
		LinkFreq:        make([]float64, len(s.links)),
	}

	// Stagger flow start phases deterministically across one packet
	// period so same-rate flows do not inject in lockstep.
	for i := range s.routing.Flows {
		phase := s.period[i] * float64(i%7) / 7.0
		s.q.push(phase, evInject, int32(i))
	}

	for s.q.len() > 0 {
		e := s.q.pop()
		if e.time > s.cfg.Horizon {
			// A popped arrival past the horizon is a packet
			// mid-transmission, not a silently vanished one.
			if isArrival(e.kind()) {
				st.InFlight++
			}
			break
		}
		switch e.kind() {
		case evInject:
			f := e.arg
			st.Injected++
			h := s.arena.alloc()
			*s.arena.at(h) = packet{flow: f, injected: e.time, bits: s.cfg.PacketBits, prevDone: e.time}
			if s.tracer != nil {
				s.tracer.record(TraceEvent{Time: e.time, Kind: "inject", CommID: s.routing.Flows[f].Comm.ID})
			}
			s.arrive(st, h, e.time)
			s.q.push(e.time+s.period[f], evInject, f)
		case evFreeArrive:
			// Store-and-forward fusion: the tail clears the link and the
			// packet reaches the next router at the same instant. Free
			// the link first, then arrive — exactly the order the two
			// split events (adjacent sequence numbers, same timestamp)
			// process in.
			h := e.arg
			pkt := s.arena.at(h)
			id := s.pathLink[s.flowOff[pkt.flow]+pkt.hop-1]
			s.links[id].busy = false
			s.startNext(id, e.time)
			if s.tracer != nil {
				s.tracer.record(TraceEvent{
					Time: e.time, Kind: "hop",
					CommID: s.routing.Flows[pkt.flow].Comm.ID, Hop: int(pkt.hop),
				})
			}
			s.arrive(st, h, e.time)
		case evArrive:
			pkt := s.arena.at(e.arg)
			if s.tracer != nil {
				s.tracer.record(TraceEvent{
					Time: e.time, Kind: "hop",
					CommID: s.routing.Flows[pkt.flow].Comm.ID, Hop: int(pkt.hop),
				})
			}
			s.arrive(st, e.arg, e.time)
		case evLinkFree:
			s.links[e.arg].busy = false
			s.startNext(e.arg, e.time)
		}
	}
	// Everything still scheduled to arrive is in flight at the horizon.
	st.InFlight += s.q.arrivals()
	s.finalize(st)
	return st
}

// arrive handles a packet reaching a router: deliver it (the event time of
// a final arrival is the tail's), or queue it on the next link of its
// path.
func (s *Simulator) arrive(st *Stats, h int32, now float64) {
	pkt := s.arena.at(h)
	if pkt.hop == s.hops(pkt.flow) {
		fl := &s.routing.Flows[pkt.flow]
		if s.tracer != nil {
			s.tracer.record(TraceEvent{
				Time: now, Kind: "deliver", CommID: fl.Comm.ID,
				Hop: int(pkt.hop), Lat: now - pkt.injected,
			})
		}
		if s.observe != nil {
			s.observe(Delivery{CommID: fl.Comm.ID, Injected: pkt.injected, Time: now, Bits: pkt.bits})
		}
		st.Delivered++
		if pkt.injected >= s.cfg.Warmup {
			s.comms[s.flowSlot[pkt.flow]].record(pkt.bits, now-pkt.injected)
		}
		s.arena.release(h)
		return
	}
	i := s.flowOff[pkt.flow] + pkt.hop
	id := s.pathLink[i]
	class := int(s.pathClass[i])
	ls := &s.links[id]
	if pkt.hop > 0 {
		// A transit packet lands in the router's input buffer (one write
		// plus one read); freshly injected packets wait in the source
		// NIC's queue, which is not a router buffer.
		s.bufferE[id] += s.cfg.BufferPJPerBit * pkt.bits * 1e-3
		if s.cfg.BufferPackets > 0 {
			ls.reserved[class]-- // the claimed slot is now occupied
			ls.relayQueued[class]++
		}
	}
	ls.queues[class].push(h)
	s.startNext(id, now)
}

// nextHopTarget returns the link and VC class the packet will need after
// the given hop, or link −1 when that hop delivers it to its sink.
func (s *Simulator) nextHopTarget(h int32) (link int32, class int) {
	pkt := s.arena.at(h)
	i := s.flowOff[pkt.flow] + pkt.hop + 1
	if i >= s.flowOff[pkt.flow+1] {
		return -1, 0
	}
	return s.pathLink[i], int(s.pathClass[i])
}

// hasRoom reports whether the VC buffer (link id, class) can accept one
// more transit packet, counting queued transit packets and slots claimed
// by in-flight ones. Source-side injections do not consume router
// buffers.
func (s *Simulator) hasRoom(id int32, class int) bool {
	if s.cfg.BufferPackets <= 0 || id < 0 {
		return true
	}
	return s.links[id].relayQueued[class]+s.links[id].reserved[class] < s.cfg.BufferPackets
}

// startNext begins transmitting a head-of-line packet if the link is idle
// and, with finite buffers, the downstream VC buffer has room (credit
// backpressure). Virtual channels are scanned escape-class first, so a
// blocked adaptive queue never starves the escape network — the dynamic
// counterpart of Duato's condition. Under store-and-forward the packet
// reaches the next router when its tail does; under cut-through the head
// is forwarded one flit time after service starts, while the tail cannot
// clear this link earlier than one flit after it cleared the previous
// one.
func (s *Simulator) startNext(id int32, now float64) {
	ls := &s.links[id]
	if ls.busy {
		return
	}
	h := int32(-1)
	var class int
	for c := 0; c < numClasses; c++ {
		if ls.queues[c].len() == 0 {
			continue
		}
		head := ls.queues[c].front()
		down, downClass := s.nextHopTarget(head)
		if !s.hasRoom(down, downClass) {
			// Blocked: retry when the downstream VC drains. Other
			// classes may still proceed — that is what VCs buy.
			s.links[down].waiters[downClass] = appendUnique(s.links[down].waiters[downClass], id)
			continue
		}
		h, class = head, c
		break
	}
	if h < 0 {
		return
	}
	pkt := s.arena.at(h)
	flow, hop, bits, prevDone := pkt.flow, pkt.hop, pkt.bits, pkt.prevDone
	downstream, downClass := s.nextHopTarget(h)
	ls.queues[class].popFront()
	ls.busy = true // set before waking waiters: the wake chain may reach this link again
	if s.cfg.BufferPackets > 0 {
		if hop > 0 {
			ls.relayQueued[class]--
		}
		if downstream >= 0 {
			s.links[downstream].reserved[downClass]++
		}
		s.wakeWaiters(id, class, now)
	}
	// The transmitting router's datapath (crossbar + arbitration)
	// processes every bit it forwards; pJ × bits = 1e-3 nJ.
	s.routerE[s.linkSrc[id]] += s.cfg.RouterPJPerBit * bits * 1e-3
	tx := bits / ls.freq
	done := now + tx
	if s.cfg.Switching == CutThrough {
		if tail := prevDone + s.cfg.FlitBits/ls.freq; tail > done {
			done = tail
		}
	}
	// Busy time is only accrued inside the simulated window, so a
	// transmission completing past the horizon cannot push link
	// utilization above 1.0.
	end := done
	if end > s.cfg.Horizon {
		end = s.cfg.Horizon
	}
	ls.busyTime += end - now

	// Advance the packet onto the next hop in place.
	pkt.hop = hop + 1
	pkt.prevDone = done
	// Completions go on the lane of the link's frequency, cut-through
	// head arrivals on the matching arrival lane; pushLane falls back to
	// the heap for an event that would break a lane's order (a
	// tail-bound completion finishing earlier than the lane's tail).
	lane := int(s.linkLane[id])
	if s.cfg.Switching == CutThrough {
		arrival := done
		if head := now + s.cfg.FlitBits/ls.freq; head < done {
			arrival = head
		}
		if pkt.hop == s.hops(flow) {
			arrival = done // final delivery counts the tail
		}
		if arrival == done {
			// Tail-bound (or final-hop) pipelines coincide like
			// store-and-forward: fuse the pair.
			s.q.pushLane(lane, done, evFreeArrive, h)
		} else {
			s.q.pushLane(lane, done, evLinkFree, id)
			if lane != noLane {
				lane += s.freqLanes
			}
			s.q.pushLane(lane, arrival, evArrive, h)
		}
	} else {
		// Store-and-forward: tail departure and next-router arrival
		// coincide, so one fused event carries both (the link id is
		// recomputed from the packet's advanced hop).
		s.q.pushLane(lane, done, evFreeArrive, h)
	}
}

// wakeWaiters retries upstream links that were blocked on this VC's
// buffer space. The drained list's backing array goes back to the waiter
// pool; re-blocking links append to a fresh pooled list, so the wake chain
// never mutates the snapshot it is iterating.
func (s *Simulator) wakeWaiters(id int32, class int, now float64) {
	ls := &s.links[id]
	w := ls.waiters[class]
	if len(w) == 0 {
		return
	}
	if n := len(s.waiterPool); n > 0 {
		ls.waiters[class] = s.waiterPool[n-1]
		s.waiterPool = s.waiterPool[:n-1]
	} else {
		ls.waiters[class] = nil
	}
	for _, up := range w {
		s.startNext(up, now)
	}
	s.waiterPool = append(s.waiterPool, w[:0])
}

func appendUnique[T comparable](xs []T, x T) []T {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}

// finalize computes utilizations, energy and stall counts. The Energy
// breakdown is carved from one slab allocation; link energy is derived
// from the accrued busy time (leakage over the whole horizon, dynamic
// power only while transmitting), so activity accounting costs nothing
// per event.
func (s *Simulator) finalize(st *Stats) {
	st.PerComm = make(map[int]CommStats, len(s.comms))
	for slot, cs := range s.comms {
		st.PerComm[s.commIDs[slot]] = cs
	}
	cores, space := s.tp.NumCores(), len(s.links)
	slab := make([]float64, cores+2*space)
	e := &st.Energy
	e.RouterNJ = slab[:cores:cores]
	e.LinkNJ = slab[cores : cores+space : cores+space]
	e.BufferNJ = slab[cores+space:]
	copy(e.RouterNJ, s.routerE)
	copy(e.BufferNJ, s.bufferE)
	for id := range s.links {
		ls := &s.links[id]
		st.Stalled += ls.queuedPackets()
		if ls.freq == 0 {
			continue
		}
		st.LinkUtilization[id] = ls.busyTime / s.cfg.Horizon
		st.LinkFreq[id] = ls.freq
		p := s.model.Pleak + s.model.Dynamic(ls.freq)
		st.PowerMW += p
		st.ActiveLinks++
		// mW × µs = nJ: leakage for the whole horizon, dynamic switching
		// only while bits were on the wire.
		e.LinkNJ[id] = s.model.Pleak*s.cfg.Horizon + s.model.Dynamic(ls.freq)*ls.busyTime
	}
	for _, v := range e.RouterNJ {
		e.RouterTotalNJ += v
	}
	for _, v := range e.LinkNJ {
		e.LinkTotalNJ += v
	}
	for _, v := range e.BufferNJ {
		e.BufferTotalNJ += v
	}
	e.TotalNJ = e.RouterTotalNJ + e.LinkTotalNJ + e.BufferTotalNJ
	// EnergyNJ stays the historical static estimate — every active link
	// at full assigned-frequency power for the whole horizon — so the
	// activity-based Energy.TotalNJ can be compared against it.
	st.EnergyNJ = st.PowerMW * s.cfg.Horizon
}
