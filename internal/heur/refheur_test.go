package heur

import (
	"slices"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/route"
)

// This file preserves the straightforward forms of the PR and XYI hot
// loops as test-only references. The differential tests pin the
// production heuristics against them path for path:
//
//   - refPR probes removability with a breadth-first reachability sweep
//     that skips the link, sorts the candidate communications per probe,
//     scans every state for a remaining multi-path communication, and
//     puts every set-aside link back into play after each applied removal.
//   - refXYI scores every candidate with the full swapEffectOf (excess
//     and pseudo-power together) before the lexicographic accept rule.
//   - Both pop their hot links from refLazyHeap, a version-stamped heap
//     that pushes a fresh entry per load change and discards stale ones
//     as they surface.
//
// The references allocate freely; only their decisions matter.

// refLazyHeap is the stale-entry-popping max-heap over tracker loads:
// decreasing load, ties by increasing link id.
type refLazyHeap struct {
	t       *route.LoadTracker
	entries []refHeapEntry
	ver     []uint32
	aside   []int
}

type refHeapEntry struct {
	load float64
	id   int
	ver  uint32
}

func (a refHeapEntry) less(b refHeapEntry) bool {
	if a.load != b.load {
		return a.load > b.load
	}
	return a.id < b.id
}

func newRefLazyHeap(t *route.LoadTracker) *refLazyHeap {
	h := &refLazyHeap{t: t, ver: make([]uint32, len(t.LoadsView()))}
	for id, load := range t.LoadsView() {
		if load > 0 {
			h.entries = append(h.entries, refHeapEntry{load: load, id: id})
		}
	}
	for i := len(h.entries)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	return h
}

func (h *refLazyHeap) push(id int) {
	h.ver[id]++
	load := h.t.LoadID(id)
	if load <= 0 {
		return
	}
	h.entries = append(h.entries, refHeapEntry{load: load, id: id, ver: h.ver[id]})
	h.siftUp(len(h.entries) - 1)
}

func (h *refLazyHeap) pop() (int, bool) {
	for len(h.entries) > 0 {
		top := h.entries[0]
		last := len(h.entries) - 1
		h.entries[0] = h.entries[last]
		h.entries = h.entries[:last]
		if len(h.entries) > 0 {
			h.siftDown(0)
		}
		if h.ver[top.id] == top.ver {
			return top.id, true
		}
	}
	return 0, false
}

func (h *refLazyHeap) setAside(id int) { h.aside = append(h.aside, id) }

func (h *refLazyHeap) reactivate() {
	for _, id := range h.aside {
		h.push(id)
	}
	h.aside = h.aside[:0]
}

func (h *refLazyHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.entries[i].less(h.entries[parent]) {
			return
		}
		h.entries[i], h.entries[parent] = h.entries[parent], h.entries[i]
		i = parent
	}
}

func (h *refLazyHeap) siftDown(i int) {
	n := len(h.entries)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && h.entries[r].less(h.entries[child]) {
			child = r
		}
		if !h.entries[child].less(h.entries[i]) {
			return
		}
		h.entries[i], h.entries[child] = h.entries[child], h.entries[i]
		i = child
	}
}

// refPRState is one communication's shrinking step DAG.
type refPRState struct {
	c         comm.Comm
	steps     [][]int
	initSizes []int
	static    bool
	multi     bool
}

// refPR is the reference Path-Remover (see the file comment).
func refPR(in Instance, static bool) route.Routing {
	m := in.Mesh
	loads := route.NewLoadTracker(m)
	states := make([]refPRState, len(in.Comms))
	commsByLink := make([][]int, m.LinkIDSpace())
	for i, c := range in.Comms {
		st := &states[i]
		st.c, st.static = c, static
		for t := 0; t < c.Length(); t++ {
			var step []int
			for _, l := range m.AppendFrontierLinks(nil, c.Src, c.Dst, t) {
				id := m.LinkID(l)
				step = append(step, id)
				commsByLink[id] = append(commsByLink[id], i)
			}
			st.steps = append(st.steps, step)
			st.initSizes = append(st.initSizes, len(step))
		}
		st.refreshMulti()
		st.addShares(loads, +1)
	}

	hp := newRefLazyHeap(loads)
	for refAnyMulti(states) {
		id, ok := hp.pop()
		if !ok {
			break
		}
		touched, preLoads, ok := refRemoveFromHeaviest(m, loads, states, commsByLink, id)
		if !ok {
			hp.setAside(id)
			continue
		}
		for k, lid := range touched {
			if loads.LoadID(lid) != preLoads[k] {
				hp.push(lid)
			}
		}
		hp.push(id)
		hp.reactivate()
	}

	flows := make([]route.Flow, len(states))
	for i, st := range states {
		var p route.Path
		for _, step := range st.steps {
			p = append(p, m.LinkByID(step[0]))
		}
		flows[i] = route.Flow{Comm: st.c, Path: p}
	}
	return route.Routing{Mesh: m, Flows: flows}
}

// refRemoveFromHeaviest deletes link id from the heaviest multi-path
// communication whose DAG survives the removal, returning the removing
// communication's pre-removal links and their loads.
func refRemoveFromHeaviest(m *mesh.Mesh, loads *route.LoadTracker, states []refPRState,
	commsByLink [][]int, id int) (touched []int, preLoads []float64, ok bool) {

	var order []int
	for _, i := range commsByLink[id] {
		if states[i].multi {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		if states[a].c.Rate != states[b].c.Rate {
			if states[a].c.Rate > states[b].c.Rate {
				return -1
			}
			return 1
		}
		return states[a].c.ID - states[b].c.ID
	})
	for _, i := range order {
		st := &states[i]
		if !st.reachable(m, id) {
			continue
		}
		for _, step := range st.steps {
			for _, lid := range step {
				touched = append(touched, lid)
				preLoads = append(preLoads, loads.LoadID(lid))
			}
		}
		st.addShares(loads, -1)
		st.remove(m, id)
		st.addShares(loads, +1)
		kept := make(map[int]bool)
		for _, step := range st.steps {
			for _, lid := range step {
				kept[lid] = true
			}
		}
		for _, lid := range touched {
			if kept[lid] {
				continue
			}
			list := commsByLink[lid]
			j := slices.Index(list, i)
			commsByLink[lid] = slices.Delete(list, j, j+1)
		}
		return touched, preLoads, true
	}
	return nil, nil, false
}

func (st *refPRState) addShares(loads *route.LoadTracker, sign float64) {
	for t, step := range st.steps {
		denom := float64(len(step))
		if st.static {
			denom = float64(st.initSizes[t])
		}
		share := sign * st.c.Rate / denom
		for _, id := range step {
			loads.AddID(id, share)
		}
	}
}

func (st *refPRState) refreshMulti() {
	st.multi = false
	for _, step := range st.steps {
		if len(step) > 1 {
			st.multi = true
			return
		}
	}
}

// reachable runs a forward sweep through the step DAG skipping link skip
// and reports whether the sink is still reached.
func (st *refPRState) reachable(m *mesh.Mesh, skip int) bool {
	return refReachable(m, st.c, st.steps, skip)
}

// refReachable is the breadth-first removability probe over a step DAG.
func refReachable(m *mesh.Mesh, c comm.Comm, steps [][]int, skip int) bool {
	frontier, next := make([]bool, m.NumCores()), make([]bool, m.NumCores())
	frontier[m.CoordIndex(c.Src)] = true
	for _, step := range steps {
		clear(next)
		reached := false
		for _, lid := range step {
			if l := m.LinkByID(lid); lid != skip && frontier[m.CoordIndex(l.From)] {
				next[m.CoordIndex(l.To)] = true
				reached = true
			}
		}
		if !reached {
			return false
		}
		frontier, next = next, frontier
	}
	return frontier[m.CoordIndex(c.Dst)]
}

// remove deletes link id and prunes every link no longer on a src→dst
// path (forward ∩ backward reachability).
func (st *refPRState) remove(m *mesh.Mesh, id int) {
	n := len(st.steps)
	fwd := make([][]bool, n+1)
	bwd := make([][]bool, n+1)
	for t := range fwd {
		fwd[t], bwd[t] = make([]bool, m.NumCores()), make([]bool, m.NumCores())
	}
	fwd[0][m.CoordIndex(st.c.Src)] = true
	for t, step := range st.steps {
		for _, lid := range step {
			if l := m.LinkByID(lid); lid != id && fwd[t][m.CoordIndex(l.From)] {
				fwd[t+1][m.CoordIndex(l.To)] = true
			}
		}
	}
	bwd[n][m.CoordIndex(st.c.Dst)] = true
	for t := n - 1; t >= 0; t-- {
		for _, lid := range st.steps[t] {
			if l := m.LinkByID(lid); lid != id && bwd[t+1][m.CoordIndex(l.To)] {
				bwd[t][m.CoordIndex(l.From)] = true
			}
		}
	}
	for t, step := range st.steps {
		var kept []int
		for _, lid := range step {
			l := m.LinkByID(lid)
			if lid != id && fwd[t][m.CoordIndex(l.From)] && bwd[t+1][m.CoordIndex(l.To)] {
				kept = append(kept, lid)
			}
		}
		if len(kept) == 0 {
			panic("heur: reference PR pruned a communication to zero paths")
		}
		st.steps[t] = kept
	}
	st.refreshMulti()
}

func refAnyMulti(states []refPRState) bool {
	for i := range states {
		if states[i].multi {
			return true
		}
	}
	return false
}

// refXYI is the reference XY-Improver (see the file comment). It reuses
// the production moveOff and swapEffectOf, whose behaviour the
// optimisations under test do not change.
func refXYI(in Instance) route.Routing {
	ws := route.NewWorkspace()
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
	loads.Observe(ev)

	h := newRefLazyHeap(loads)
	for {
		lid, ok := h.pop()
		if !ok {
			break
		}
		l := in.Mesh.LinkByID(lid)
		bestPos, bestLo, bestHi := -1, 0, 0
		var best swapEffect
		var bestSpan route.Path
		for _, pos := range loads.MembersOn(lid) {
			c := in.Comms[pos]
			p := ps.Get(c.ID)
			span, lo, hi, ok := sc.moveOff(p, l)
			if !ok {
				continue
			}
			e := swapEffectOf(in.Mesh, ev, loads, p[lo:hi+1], span, c.Rate, sc)
			if e.improves() && (bestPos < 0 || e.betterThan(best)) {
				bestPos, bestLo, bestHi, best = int(pos), lo, hi, e
				bestSpan = append(bestSpan[:0], span...)
			}
		}
		if bestPos < 0 {
			h.setAside(lid)
			continue
		}
		c := in.Comms[bestPos]
		old := ps.Get(c.ID)
		full := append(route.Path{}, old[:bestLo]...)
		full = append(full, bestSpan...)
		full = append(full, old[bestHi+1:]...)
		changed := make(map[int]float64)
		for _, p := range []route.Path{old, full} {
			for _, pl := range p {
				id := in.Mesh.LinkID(pl)
				changed[id] = loads.LoadID(id)
			}
		}
		loads.ExcludePath(bestPos, old, c.Rate)
		loads.IncludePath(bestPos, full, c.Rate)
		for id, pre := range changed {
			if loads.LoadID(id) != pre {
				h.push(id)
			}
		}
		h.push(lid)
		h.reactivate()
		ps.SetCopy(c.ID, full)
	}
	return singlePathRouting(in, ws)
}
