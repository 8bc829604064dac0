package noc

import (
	"slices"
	"testing"

	"repro/internal/mesh"
	"repro/internal/power"
)

// refQueue is the event queue's specification: a plain list popped by
// its (time, key) minimum.
type refQueue struct {
	items []event
	seq   uint32
}

func (r *refQueue) push(time float64, kind eventKind, arg int32) {
	r.items = append(r.items, event{time: time, key: r.seq<<2 | uint32(kind), arg: arg})
	r.seq++
}

func (r *refQueue) pop() event {
	i := 0
	for j := range r.items {
		if before(r.items[j], r.items[i]) {
			i = j
		}
	}
	e := r.items[i]
	r.items = slices.Delete(r.items, i, i+1)
	return e
}

// FuzzEventQueue drives the queue with random push, pushLane, pop and
// reset sequences and checks every pop against the sorted-list
// specification. Event times come from a small grid, so ties (broken by
// sequence number) and lane pushes earlier than the lane's tail (which
// must fall back to the heap) are frequent.
func FuzzEventQueue(f *testing.F) {
	// Lane 0 gets time 3 then time 1: the second must fall back.
	f.Add([]byte{11, 6, 11, 2, 0, 0, 0, 0}, uint8(1))
	f.Add([]byte{1, 5, 2, 3, 6, 1, 0, 0, 10, 9, 14, 2, 0, 0, 0, 0}, uint8(2))
	f.Add([]byte{2, 1, 2, 2, 2, 3, 2, 1, 6, 4, 6, 0, 0, 0, 7, 0, 3, 3}, uint8(1))
	f.Add([]byte{3, 15, 7, 15, 11, 0, 0, 1, 1, 1, 0, 0}, uint8(8))
	f.Fuzz(func(t *testing.T, ops []byte, lanes uint8) {
		nl := int(lanes % (maxLanes + 1))
		var q eventQueue
		var ref refQueue
		q.reset(nl)
		check := func(got event) {
			t.Helper()
			if want := ref.pop(); got != want {
				t.Fatalf("pop = %+v, want %+v", got, want)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, v := ops[i], ops[i+1]
			time, kind, arg := float64(v%16)/2, eventKind(v>>4&3), int32(i)
			switch op % 8 {
			case 0, 1:
				if q.len() > 0 {
					check(q.pop())
				}
			case 2:
				q.push(time, kind, arg)
				ref.push(time, kind, arg)
			case 7:
				q.reset(nl)
				ref = refQueue{}
			default:
				// Lane noLane included: the event must go to the heap.
				l := int(op/8)%(nl+1) - 1
				q.pushLane(l, time, kind, arg)
				ref.push(time, kind, arg)
			}
			if q.len() != len(ref.items) {
				t.Fatalf("len = %d, want %d", q.len(), len(ref.items))
			}
			for l := range q.lanes {
				live := q.lanes[l].live()
				for j := 1; j < len(live); j++ {
					if before(live[j], live[j-1]) {
						t.Fatalf("lane %d out of order at %d: %+v before %+v", l, j, live[j], live[j-1])
					}
				}
			}
			arrivals := 0
			for _, e := range ref.items {
				if isArrival(e.kind()) {
					arrivals++
				}
			}
			if got := q.arrivals(); got != arrivals {
				t.Fatalf("arrivals() = %d, want %d", got, arrivals)
			}
		}
		for q.len() > 0 {
			check(q.pop())
		}
		if len(ref.items) != 0 {
			t.Fatalf("queue empty with %d events left in the specification", len(ref.items))
		}
	})
}

// TestStoreAndForwardCompletionsStayInLanes pins the lane argument on a
// store-and-forward run under the discrete model: every completion joins
// its frequency's lane without falling back, so the heap only ever holds
// injections — at most one per flow.
func TestStoreAndForwardCompletionsStayInLanes(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	checked := 0
	for seed := int64(0); seed < 10; seed++ {
		r := xyRoutingOf(m, seed, 16, 100, 900)
		for _, cfg := range []Config{{Horizon: 400}, {Horizon: 400, BufferPackets: 2}} {
			sim, err := New(r, model, cfg)
			if err != nil {
				continue
			}
			if sim.freqLanes == 0 || sim.freqLanes > len(model.Freqs) || countLinks(sim, noLane) > 0 {
				t.Fatalf("seed %d: %d lanes, %d unlaned links for a %d-level model",
					seed, sim.freqLanes, countLinks(sim, noLane), len(model.Freqs))
			}
			flows := len(r.Flows)
			inspect := func(Delivery) {
				if len(sim.q.items) > flows {
					t.Fatalf("seed %d: %d heap entries for %d flows", seed, len(sim.q.items), flows)
				}
				for _, e := range sim.q.items {
					if e.kind() != evInject {
						t.Fatalf("seed %d: a kind-%d event fell back to the heap", seed, e.kind())
					}
				}
			}
			sim.Observe(inspect)
			if st := sim.Run(); st.Delivered == 0 {
				t.Fatalf("seed %d: nothing delivered", seed)
			}
			inspect(Delivery{})
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no feasible instance")
	}
}
