// Package noc is a discrete-event, packet-level network-on-chip simulator
// used to cross-validate routings produced by the heuristics: packets are
// injected periodically at each communication's requested rate, forwarded
// store-and-forward or cut-through along the routing's explicit paths
// (table-based source routing), and serialized on links whose frequencies
// are the DVFS assignments of the power model. The paper's evaluation is
// analytic (link loads → power); this substrate replays the same routings
// dynamically and checks that delivered throughput, link utilization and
// energy agree with the analytic figures.
//
// The engine follows the repository's dense-workspace discipline
// (route.Workspace, power.Evaluator): events live in a value-typed 4-ary
// min-heap plus FIFO lanes (no interface boxing, no per-event
// allocation), packets in a freelist arena addressed by int32 handles,
// and each flow's path is precompiled to flat link-id/VC-class slices at
// bind time. Every link frequency gets a lane (at most maxLanes) for its
// transmission completions: packets are all the same size, so a link at
// frequency f finishes at now + bits/f, and those events arrive already
// sorted. A lane takes an event only if it sorts at or after the lane's
// tail; anything else — a cut-through completion bound by the upstream
// tail, a link at a frequency past the lane cap — goes to the heap, and
// pop takes the (time, key) minimum over the heap top and the lane heads.
// The pop order is the heap-only order exactly; the heap just shrinks to
// the injections (one per flow) and the rare fallback. A Simulator is
// rebindable — Reset (or the pooling front door, Workspace.Simulator)
// reuses every internal buffer across routings, so multi-trial callers run
// the simulator with O(1) steady-state allocations per run (the returned
// Stats is the only fresh memory). See Workspace for the reuse contract.
//
// Horizon accounting is exact: per-link busy time is clamped to the
// simulated window (utilization never exceeds 1.0), and every injected
// packet is accounted for at the horizon — Stats.Injected =
// Stats.Delivered + Stats.Stalled + Stats.InFlight.
//
// Deadlock freedom: with unbounded FIFOs the simulator cannot deadlock;
// the paper assumes an equivalent deadlock-avoidance mechanism (resource
// ordering [5] or escape channels [3]). With finite buffers
// (Config.BufferPackets), routings whose channel dependency graph is
// cyclic can genuinely deadlock — internal/deadlock's escape-channel
// assignment (AssignClasses) restores progress.
package noc

import "math"

// eventKind discriminates simulator events.
type eventKind uint32

const (
	evInject   eventKind = iota // a flow emits its next packet
	evLinkFree                  // a link finishes transmitting (tail gone)
	evArrive                    // a packet (head) reaches its next router
	// evFreeArrive fuses a link's tail departure with the packet's
	// arrival at the next router — under store-and-forward the two always
	// share one timestamp and adjacent sequence numbers, so processing
	// them as one event halves the heap volume without reordering
	// anything (see startNext).
	evFreeArrive
)

// event is one scheduled simulator occurrence, packed to 16 bytes so heap
// sifts touch minimal memory. key carries the tie-break sequence number
// in its upper 30 bits and the eventKind in its lower 2: comparing keys
// compares sequence numbers, so (time, key) is the same total order as
// the historical (time, seq) — fully deterministic and independent of the
// heap implementation, the property the differential test against the
// container/heap engine relies on. arg is the flow index (evInject), the
// link id (evLinkFree) or the packet arena handle (evArrive,
// evFreeArrive).
type event struct {
	time float64
	key  uint32
	arg  int32
}

func (e event) kind() eventKind { return eventKind(e.key & 3) }

// isArrival reports whether an event carries a packet to its next
// router; one still pending at the horizon is a packet in flight.
func isArrival(k eventKind) bool { return k == evArrive || k == evFreeArrive }

// maxEventSeq bounds the 30-bit sequence space (~10⁹ events per run).
const maxEventSeq = 1 << 30

// maxLanes caps the frequencies that get lanes: one lane per distinct
// link frequency, up to this many (cut-through doubles each for its head
// arrivals). Links at further frequencies — a continuous power model can
// assign one per link — schedule their events on the heap.
const maxLanes = 8

// noLane marks a link without a lane; pushLane sends its events to the
// heap.
const noLane = -1

// before is the queue's total order: (time, key).
func before(a, b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.key < b.key
}

// eventQueue holds pending events in a hand-rolled 4-ary min-heap plus a
// few FIFO lanes, and pops them in (time, key) order. A lane only ever
// holds events in (time, key) order: pushLane appends an event to a lane
// only when it sorts at or after the lane's tail and sends it to the heap
// otherwise, so correctness never rests on the simulator's argument that
// a frequency's completions arrive sorted (see the package comment) — the
// argument only decides how much traffic skips the heap's sifts. Both
// the heap array and the lane buffers are retained across
// Simulator.Reset.
type eventQueue struct {
	items []event
	lanes []fifo[event]
	n     int // pending events, heap and lanes together
	seq   uint32
}

// reset empties the queue and gives it the given number of lanes.
func (q *eventQueue) reset(lanes int) {
	q.items = q.items[:0]
	if cap(q.lanes) < lanes {
		q.lanes = append(q.lanes[:cap(q.lanes)], make([]fifo[event], lanes-cap(q.lanes))...)
	}
	q.lanes = q.lanes[:lanes]
	for i := range q.lanes {
		q.lanes[i].reset()
	}
	q.n = 0
	q.seq = 0
}

func (q *eventQueue) len() int { return q.n }

// stamp builds an event carrying the next tie-break sequence number.
func (q *eventQueue) stamp(time float64, kind eventKind, arg int32) event {
	if q.seq == maxEventSeq {
		panic("noc: event sequence space exhausted (run exceeds 2^30 events)")
	}
	e := event{time: time, key: q.seq<<2 | uint32(kind), arg: arg}
	q.seq++
	q.n++
	return e
}

// push schedules an event on the heap.
func (q *eventQueue) push(time float64, kind eventKind, arg int32) {
	q.items = append(q.items, q.stamp(time, kind, arg))
	q.up(len(q.items) - 1)
}

// pushLane schedules an event on lane l when it sorts at or after the
// lane's tail, and on the heap otherwise (also when l is noLane). Its
// sequence number is later than every queued event's, so it sorts after
// the tail exactly when its time is not earlier.
func (q *eventQueue) pushLane(l int, time float64, kind eventKind, arg int32) {
	if l >= 0 {
		if ln := &q.lanes[l]; ln.len() == 0 || ln.back().time <= time {
			ln.push(q.stamp(time, kind, arg))
			return
		}
	}
	q.push(time, kind, arg)
}

// pop removes the earliest event; callers must check len first. The
// search starts from a sentinel that sorts after any event with a finite
// time, which every simulator event has.
func (q *eventQueue) pop() event {
	q.n--
	src := noLane
	top := event{time: math.Inf(1), key: math.MaxUint32}
	if len(q.items) > 0 {
		top = q.items[0]
	}
	lanes := q.lanes
	for l := range lanes {
		ln := &lanes[l]
		if ln.head < len(ln.buf) {
			if e := ln.buf[ln.head]; before(e, top) {
				top, src = e, l
			}
		}
	}
	if src != noLane {
		lanes[src].popFront()
		return top
	}
	n := len(q.items) - 1
	q.items[0] = q.items[n]
	q.items = q.items[:n]
	if n > 1 {
		q.down(0)
	}
	return top
}

// arrivals counts the pending arrival events, heap and lanes together.
func (q *eventQueue) arrivals() int {
	n := 0
	for _, e := range q.items {
		if isArrival(e.kind()) {
			n++
		}
	}
	for l := range q.lanes {
		for _, e := range q.lanes[l].live() {
			if isArrival(e.kind()) {
				n++
			}
		}
	}
	return n
}

func (q *eventQueue) up(i int) {
	e := q.items[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !before(e, q.items[parent]) {
			break
		}
		q.items[i] = q.items[parent]
		i = parent
	}
	q.items[i] = e
}

func (q *eventQueue) down(i int) {
	items := q.items
	n := len(items)
	e := items[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		last := first + 4
		if last > n {
			last = n
		}
		min, me := first, items[first]
		for c := first + 1; c < last; c++ {
			if ce := items[c]; before(ce, me) {
				min, me = c, ce
			}
		}
		if !before(me, e) {
			break
		}
		items[i] = me
		i = min
	}
	items[i] = e
}

// fifo is a queue with an amortized-O(1) pop that recycles its backing
// array instead of re-slicing it away. It holds the packet handles of a
// link's virtual channel and the events of a queue lane.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) reset() {
	q.buf = q.buf[:0]
	q.head = 0
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(x T) { q.buf = append(q.buf, x) }

func (q *fifo[T]) front() T { return q.buf[q.head] }

func (q *fifo[T]) back() T { return q.buf[len(q.buf)-1] }

// live returns the queued items, oldest first.
func (q *fifo[T]) live() []T { return q.buf[q.head:] }

func (q *fifo[T]) popFront() T {
	x := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	} else if q.head >= 32 && q.head*2 >= len(q.buf) {
		// Compact so a queue that never fully drains cannot grow without
		// bound.
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	return x
}
