package heur

import (
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
)

// XYI is the XY-Improver heuristic of Section 5.4. It starts from the XY
// routing and repeatedly attacks the most-loaded link: every communication
// crossing that link is tentatively moved off it — a vertical link is
// replaced by the horizontal link entering the same core from the source
// side, a horizontal link by the vertical link leaving the same core
// toward the sink — and the modification that lowers power the most is
// kept. When no modification on a link improves power, the link is set
// aside and the next most-loaded link is tried; after every applied
// improvement every link is back in play, starting from the new
// most-loaded one.
//
// Improvement decisions use a pseudo-power that extends the model's curve
// continuously beyond the top frequency, so the heuristic can climb down
// from the (frequently infeasible) XY start even while some links are
// overloaded; the final routing is still judged by the strict model.
//
// The hot loop runs on the compiled objective engine: candidate scans
// visit only the flows crossing the attacked link (the tracker's
// incidence index), link power probes hit the evaluator's precomputed
// frequency table, and the most-loaded link comes from an indexed heap
// instead of a full re-sort after every applied move. Candidates are
// scored excess first: the pseudo-power delta is summed only when the
// excess delta cannot decide the lexicographic accept rule on its own.
// Routings are bit-for-bit those of the straightforward
// scan-all-and-resort formulation (pinned by the golden figure tests and
// the differential reference test).
type XYI struct{}

// Name returns "XYI".
func (XYI) Name() string { return "XYI" }

// Route implements Heuristic.
func (h XYI) Route(in Instance) (route.Routing, error) {
	return h.RouteInto(in, route.NewWorkspace())
}

// RouteInto implements WorkspaceRouter.
func (XYI) RouteInto(in Instance, ws *route.Workspace) (route.Routing, error) {
	ps := prepare(in, ws)
	loads := ws.Tracker()
	sc := scratchOf(ws)
	ev := evaluatorFor(ws, in.Model)
	loads.EnableIncidence()
	for pos, c := range in.Comms {
		p := route.AppendXY(ps.Acquire(c.ID, c.Length()), c.Src, c.Dst)
		ps.Set(c.ID, p)
		loads.IncludePath(pos, p, c.Rate)
	}
	// Observe after seeding: the per-link pseudo-power cache turns every
	// candidate's "before" probe into an array read.
	loads.Observe(ev)

	h := &sc.heap
	h.Init(loads)
	for {
		lid, ok := h.Pop()
		if !ok {
			break
		}
		l := in.Mesh.LinkByID(lid)
		bestPos, bestLo, bestHi := -1, 0, 0
		var best swapEffect
		// bestPowered reports whether best.power has been summed; an
		// incumbent that won on excess alone has not.
		bestPowered := false
		// Only flows currently crossing l can be moved off it; the
		// incidence index lists them in instance order, so the scan is
		// the full per-communication scan with the misses skipped.
		for _, pos := range loads.MembersOn(lid) {
			c := in.Comms[pos]
			p := ps.Get(c.ID)
			span, lo, hi, ok := sc.moveOff(p, l)
			if !ok {
				continue
			}
			// Links outside [lo,hi] are identical in the old and new
			// paths (their net delta is exactly zero), so the effect of
			// the full-path swap equals the effect of the span swap.
			sc.swapDeltas(in.Mesh, p[lo:hi+1], span, c.Rate)
			e := swapEffect{excess: sc.excessOfDeltas(ev, loads)}
			// Excess decides first: a candidate that adds excess never
			// improves, and one with more excess than the incumbent
			// never beats it, whatever its power.
			if e.excess > gainEps || (bestPos >= 0 && e.excess > best.excess) {
				sc.clearDeltas()
				continue
			}
			tie := bestPos >= 0 && e.excess == best.excess
			powered := tie || e.excess >= -gainEps
			if powered {
				e.power = sc.powerOfDeltas(ev, loads)
			}
			sc.clearDeltas()
			if tie && !bestPowered {
				// Loads do not move during the scan, so re-scoring the
				// incumbent's stored span gives the power it would have
				// had when it won.
				bc := in.Comms[bestPos]
				bp := ps.Get(bc.ID)
				best.power = swapEffectOf(in.Mesh, ev, loads, bp[bestLo:bestHi+1], sc.best, bc.Rate, sc).power
				bestPowered = true
			}
			if e.improves() && (bestPos < 0 || e.betterThan(best)) {
				bestPos, bestLo, bestHi, best, bestPowered = int(pos), lo, hi, e, powered
				// Keep the winning span in sc.best; the next moveOff
				// builds into the other buffer.
				sc.cand, sc.best = sc.best, sc.cand
			}
		}
		if bestPos < 0 {
			h.SetAside(lid)
			continue
		}
		c := in.Comms[bestPos]
		old := ps.Get(c.ID)
		full := append(sc.full[:0], old[:bestLo]...)
		full = append(full, sc.best...)
		full = append(full, old[bestHi+1:]...)
		sc.full = full
		// Snapshot the pre-move loads of every affected link, so only
		// links whose load actually changed re-enter the heap (the
		// shared prefix/suffix usually round-trips to the same bits and
		// its heap entries stay exact).
		touched := sc.touched[:0]
		for _, pl := range old {
			id := in.Mesh.LinkIDFast(pl)
			if sc.delta[id] == 0 {
				sc.delta[id] = 1
				touched = append(touched, id)
			}
		}
		for _, pl := range full {
			id := in.Mesh.LinkIDFast(pl)
			if sc.delta[id] == 0 {
				sc.delta[id] = 1
				touched = append(touched, id)
			}
		}
		sc.touched = touched
		preLoads := sc.preLoads[:0]
		for _, id := range touched {
			preLoads = append(preLoads, loads.LoadID(id))
		}
		sc.preLoads = preLoads
		loads.ExcludePath(bestPos, old, c.Rate)
		loads.IncludePath(bestPos, full, c.Rate)
		for k, id := range touched {
			sc.delta[id] = 0
			if loads.LoadID(id) != preLoads[k] {
				h.Push(id)
			}
		}
		// The attacked link was popped, so it has no live entry left:
		// re-push it explicitly even if its load round-tripped bit-exact.
		h.Push(lid)
		h.Reactivate()
		ps.SetCopy(c.ID, full)
	}
	return singlePathRouting(in, ws), nil
}

// moveOff applies the Section 5.4 local modification to a Manhattan path
// so that it avoids link l, returning ok=false when the Manhattan
// constraint forbids the move:
//
//   - l vertical: the path must enter l.To horizontally from the source
//     side, so the last horizontal move before the hop over l is postponed
//     to just after it (the vertical sub-column shifts one column toward
//     the source).
//   - l horizontal: the path must leave l.From vertically toward the sink,
//     so the first vertical move after the hop is advanced to just before
//     it (the horizontal sub-row shifts one row toward the sink).
//
// Only the modified span is built (into the scratch's candidate buffer):
// span holds the new links at positions lo..hi, and every link outside the
// span is unchanged — the permuted moves displace the same totals, so the
// coordinates from hi+1 on coincide with the old path's. Candidate
// evaluation therefore touches O(span) links instead of O(path), and only
// an applied winner pays for full-path materialization.
func (sc *heurScratch) moveOff(p route.Path, l mesh.Link) (span route.Path, lo, hi int, ok bool) {
	t := -1
	for i, pl := range p {
		if pl == l {
			t = i
			break
		}
	}
	if t < 0 {
		return nil, 0, 0, false
	}
	out := sc.cand[:0]
	if l.From.V == l.To.V {
		// Vertical hop: find the last horizontal move before it.
		j := -1
		for i := t - 1; i >= 0; i-- {
			if p[i].From.U == p[i].To.U {
				j = i
				break
			}
		}
		if j < 0 {
			return nil, 0, 0, false
		}
		// New span: the vertical run p[j+1..t] shifted onto the source-side
		// column, then the postponed horizontal move.
		cur := p[j].From
		for i := j + 1; i <= t; i++ {
			nc := mesh.Coord{U: cur.U + p[i].To.U - p[i].From.U, V: cur.V}
			out = append(out, mesh.Link{From: cur, To: nc})
			cur = nc
		}
		nc := mesh.Coord{U: cur.U, V: cur.V + p[j].To.V - p[j].From.V}
		out = append(out, mesh.Link{From: cur, To: nc})
		sc.cand = out
		return out, j, t, true
	}
	// Horizontal hop: find the first vertical move after it.
	j := -1
	for i := t + 1; i < len(p); i++ {
		if p[i].From.V == p[i].To.V {
			j = i
			break
		}
	}
	if j < 0 {
		return nil, 0, 0, false
	}
	// New span: the advanced vertical move, then the horizontal run
	// p[t..j-1] shifted one row toward the sink.
	cur := p[t].From
	nc := mesh.Coord{U: cur.U + p[j].To.U - p[j].From.U, V: cur.V}
	out = append(out, mesh.Link{From: cur, To: nc})
	cur = nc
	for i := t; i < j; i++ {
		nc := mesh.Coord{U: cur.U, V: cur.V + p[i].To.V - p[i].From.V}
		out = append(out, mesh.Link{From: cur, To: nc})
		cur = nc
	}
	sc.cand = out
	return out, t, j, true
}

// swapEffect is the consequence of replacing one path with another:
// the change in total overload excess (Σ max(0, load−BW)) and the change
// in pseudo power. Negative values are improvements. Effects compare
// lexicographically — feasibility repair dominates power savings — so a
// modification never trades a feasible link set for a cheaper overloaded
// one.
type swapEffect struct {
	excess float64
	power  float64
}

const gainEps = 1e-9

// improves reports whether the effect is a strict improvement.
func (e swapEffect) improves() bool {
	if e.excess < -gainEps {
		return true
	}
	return e.excess <= gainEps && e.power < -gainEps
}

// betterThan orders effects lexicographically (excess, then power).
func (e swapEffect) betterThan(o swapEffect) bool {
	if e.excess != o.excess {
		return e.excess < o.excess
	}
	return e.power < o.power
}

// swapEffectOf computes the effect of rerouting a flow of the given rate
// from path old to path new under the current loads.
func swapEffectOf(m *mesh.Mesh, ev *power.Evaluator, loads *route.LoadTracker,
	old, new route.Path, rate float64, sc *heurScratch) swapEffect {

	sc.swapDeltas(m, old, new, rate)
	e := swapEffect{excess: sc.excessOfDeltas(ev, loads), power: sc.powerOfDeltas(ev, loads)}
	sc.clearDeltas()
	return e
}

// swapDeltas accumulates the per-link load deltas of rerouting a flow of
// the given rate from path old to path new in the scratch's dense
// link-indexed buffer, listing the written ids in ascending order in
// sc.touched. The effect sums (excessOfDeltas, powerOfDeltas) walk that
// order: float addition is not associative, so an order depending on
// path direction (or, historically, map iteration) would make near-tie
// accept decisions nondeterministic and the "deterministic heuristics"
// guarantee would silently break. (A link appears at most once per
// Manhattan path, so within one id the sum has at most two terms and
// commutativity makes the tie order among equal ids irrelevant.) Callers
// release the buffer with clearDeltas.
func (sc *heurScratch) swapDeltas(m *mesh.Mesh, old, new route.Path, rate float64) {
	if len(sc.delta) != m.LinkIDSpace() {
		sc.delta = make([]float64, m.LinkIDSpace())
	}
	touched := sc.touched[:0]
	for _, l := range old {
		id := m.LinkIDFast(l)
		if sc.delta[id] == 0 {
			touched = append(touched, id)
		}
		sc.delta[id] -= rate
	}
	for _, l := range new {
		id := m.LinkIDFast(l)
		if sc.delta[id] == 0 {
			touched = append(touched, id)
		}
		sc.delta[id] += rate
	}
	sc.touched = touched
	sortIDs(touched)
}

// excessOfDeltas sums the change in overload excess of the pending
// deltas.
func (sc *heurScratch) excessOfDeltas(ev *power.Evaluator, loads *route.LoadTracker) float64 {
	excess := 0.0
	for _, id := range sc.touched {
		if d := sc.delta[id]; d != 0 {
			before := loads.LoadID(id)
			excess += ev.Excess(before+d) - ev.Excess(before)
		}
	}
	return excess
}

// powerOfDeltas sums the change in pseudo power of the pending deltas.
func (sc *heurScratch) powerOfDeltas(ev *power.Evaluator, loads *route.LoadTracker) float64 {
	cached := loads.Observing()
	sum := 0.0
	for _, id := range sc.touched {
		d := sc.delta[id]
		if d == 0 {
			continue
		}
		before := loads.LoadID(id)
		bp := 0.0
		if cached {
			bp = loads.PseudoID(id)
		} else {
			bp = ev.Pseudo(before)
		}
		sum += ev.Pseudo(before+d) - bp
	}
	return sum
}

// clearDeltas restores the delta buffer to all zeros.
func (sc *heurScratch) clearDeltas() {
	for _, id := range sc.touched {
		sc.delta[id] = 0
	}
}

// sortIDs is an insertion sort for the tiny touched-id lists of
// swapDeltas (a handful of entries): ascending, cheaper than the
// general-purpose sort's pivot machinery at this size.
func sortIDs(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
