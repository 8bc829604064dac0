package heur

import (
	"slices"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/route"
)

// PR is the Path-Remover heuristic of Section 5.5. Every communication
// starts virtually pre-routed over all of its Manhattan paths (the ideal
// sharing of Figure 3: at each diagonal step the rate is spread equally
// over the admissible links). Links are then removed iteratively: take the
// most-loaded link and, among the communications still allowed to use it,
// the heaviest one whose path structure survives the removal; delete the
// link from that communication's allowed set, prune links that no longer
// lie on any remaining source-to-sink path (the paper's path-cleaning),
// and redistribute the communication's virtual shares over the surviving
// links. The process ends when every communication has exactly one path.
type PR struct {
	// StaticShares disables the share redistribution: a removed link's
	// virtual share simply disappears instead of concentrating on the
	// surviving links, so the tail of the removal process sees
	// increasingly optimistic loads. Exists only for the accounting
	// ablation (BenchmarkAblationPRShares); the paper's behaviour — and
	// the default — is redistribution.
	StaticShares bool
}

// Name returns "PR".
func (PR) Name() string { return "PR" }

// prState holds the shrinking path DAG of one communication.
type prState struct {
	c comm.Comm
	// steps[t] lists the link IDs still allowed at diagonal step t;
	// every listed link lies on at least one remaining src→dst path.
	// The inner lists come from the scratch's list pool and only ever
	// shrink after construction.
	steps [][]int
	// initSizes[t] is the original frontier width of step t, used as the
	// share denominator under the StaticShares ablation.
	initSizes []int
	static    bool
	multi     bool // true while more than one path remains
}

// Removability. Every listed link lies on some remaining src→dst path,
// and every Manhattan path uses exactly one link per diagonal step. So a
// link at step t can go, keeping a path, exactly when step t lists
// another link: any path through that other link avoids it. This width
// test replaces a reachability sweep per probe.
//
// Parked links. Whether removeFromHeaviest(id) succeeds depends only on
// commsByLink[id] and the step widths of those communications' DAGs, and
// removals only ever shrink both. So a link that failed fails for good:
// it is parked — kept out of the heap — for the rest of the run, and
// skipping it yields the same removal sequence as re-probing it after
// every removal.

// prScratch is the pooled dense state of the PR heuristic: per-comm DAG
// states, a link-id-indexed comm index replacing the map[int][]int, the
// leveled coord bitsets of the pruning sweeps, and the parked-link flags.
// One instance lives in each workspace under the "heur.pr" slot.
type prScratch struct {
	states []prState
	// lists pools the steps' link-id lists; nextList is the bump pointer.
	lists    [][]int
	nextList int
	// multiLeft counts the communications that still have more than one
	// path; the removal loop runs until it reaches zero.
	multiLeft int
	// commsByLink[id] lists indices into states of communications whose
	// remaining DAG includes link id (dense over LinkIDSpace), in
	// (rate desc, ID asc) order — the Section 5.5 tie-walk order.
	commsByLink [][]int
	// mark is a generation-stamped link-id set (the "remaining links of
	// this communication" set of the index rebuild).
	mark    []int
	markGen int
	// order is the (rate desc, ID asc) permutation of the instance that
	// fills commsByLink.
	order []int
	// touched records the pre-removal DAG of the removing communication:
	// the superset of links whose load or comm index the removal can
	// change.
	touched []int
	// parked[id] marks a link whose removal failed (see Parked links
	// above).
	parked []bool
	// linkFrom/linkTo are the dense coordinate indices of each link id's
	// endpoints (mesh.CoordIndex), precomputed so the pruning sweeps skip
	// the LinkByID reconstruction per link.
	linkFrom, linkTo []int32
	// fwd and bwd are the per-level reachability bitsets of remove.
	fwd, bwd []route.CoordSet
}

func prScratchOf(ws *route.Workspace) *prScratch {
	return ws.Scratch("heur.pr", func() any { return new(prScratch) }).(*prScratch)
}

// newList returns an empty pooled []int with the given capacity.
func (sc *prScratch) newList(capHint int) []int {
	if sc.nextList == len(sc.lists) {
		sc.lists = append(sc.lists, make([]int, 0, capHint))
	}
	l := sc.lists[sc.nextList]
	if cap(l) < capHint {
		l = make([]int, 0, capHint)
		sc.lists[sc.nextList] = l
	}
	sc.nextList++
	return l[:0]
}

// levels grows dst to n bitsets sized for m, each cleared, and returns it.
func levels(dst []route.CoordSet, n int, m *mesh.Mesh) []route.CoordSet {
	if cap(dst) < n {
		next := make([]route.CoordSet, n)
		copy(next, dst[:cap(dst)])
		dst = next
	}
	dst = dst[:n]
	for i := range dst {
		dst[i].Reset(m)
	}
	return dst
}

// Route implements Heuristic.
func (h PR) Route(in Instance) (route.Routing, error) {
	return h.RouteInto(in, route.NewWorkspace())
}

// RouteInto implements WorkspaceRouter.
func (h PR) RouteInto(in Instance, ws *route.Workspace) (route.Routing, error) {
	m := in.Mesh
	ps := prepare(in, ws)
	sc := prScratchOf(ws)
	loads := sc.setup(in, ws, h.StaticShares)

	// Link removal order: always attack the most-loaded link first. The
	// indexed heap replaces the historical full re-sort per removal and
	// pops in exactly the LinksByLoadDesc order; a link that yields no
	// removal is parked for good, so the removal sequence is the one of
	// re-probing every link after every removal.
	hp := &scratchOf(ws).heap
	hp.Init(loads)
	for sc.multiLeft > 0 {
		id, ok := hp.Pop()
		if !ok {
			panic("heur: PR ran out of links with multi-path communications left; " +
				"every link of a step wider than one must stay loaded and unparked")
		}
		if !removeFromHeaviest(m, loads, sc, id) {
			sc.parked[id] = true
			continue
		}
		// Only the removing communication's pre-removal links (the popped
		// one among them) can have changed load: put each unparked one
		// back in the heap at its current load.
		for _, lid := range sc.touched {
			if !sc.parked[lid] {
				hp.Push(lid)
			}
		}
	}

	for i := range sc.states {
		st := &sc.states[i]
		p := ps.Acquire(st.c.ID, len(st.steps))
		for _, step := range st.steps {
			p = append(p, m.LinkByID(step[0]))
		}
		ps.Set(st.c.ID, p)
	}
	return singlePathRouting(in, ws), nil
}

// setup builds every communication's full step DAG, pre-routes its
// virtual shares on the workspace's (reset) tracker, which it returns, and
// fills the link→comm index in tie-walk order.
func (sc *prScratch) setup(in Instance, ws *route.Workspace, static bool) *route.LoadTracker {
	m := in.Mesh
	loads := ws.Tracker()
	hsc := scratchOf(ws)
	sc.nextList = 0
	if cap(sc.states) < len(in.Comms) {
		sc.states = make([]prState, len(in.Comms))
	}
	sc.states = sc.states[:len(in.Comms)]
	if len(sc.commsByLink) != m.LinkIDSpace() {
		sc.commsByLink = make([][]int, m.LinkIDSpace())
		sc.mark = make([]int, m.LinkIDSpace())
		sc.markGen = 0
		sc.parked = make([]bool, m.LinkIDSpace())
		sc.linkFrom = make([]int32, m.LinkIDSpace())
		sc.linkTo = make([]int32, m.LinkIDSpace())
		for _, l := range m.Links() {
			id := m.LinkID(l)
			sc.linkFrom[id] = int32(m.CoordIndex(l.From))
			sc.linkTo[id] = int32(m.CoordIndex(l.To))
		}
	}
	clear(sc.parked)

	sc.multiLeft = 0
	for i, c := range in.Comms {
		st := &sc.states[i]
		st.c, st.static = c, static
		if cap(st.steps) < c.Length() {
			st.steps = make([][]int, c.Length())
		}
		st.steps = st.steps[:c.Length()]
		st.initSizes = st.initSizes[:0]
		for t := 0; t < c.Length(); t++ {
			hsc.frontier = m.AppendFrontierLinks(hsc.frontier[:0], c.Src, c.Dst, t)
			step := sc.newList(len(hsc.frontier))
			for _, l := range hsc.frontier {
				step = append(step, m.LinkID(l))
			}
			st.steps[t] = step
			st.initSizes = append(st.initSizes, len(step))
		}
		st.refreshMulti()
		if st.multi {
			sc.multiLeft++
		}
		st.addShares(loads, +1)
	}

	// Heaviest first, ties by ID: removals only delete entries, so every
	// commsByLink list keeps this order and removeFromHeaviest walks it
	// without sorting.
	sc.order = sc.order[:0]
	for i := range sc.states {
		sc.order = append(sc.order, i)
	}
	states := sc.states
	slices.SortFunc(sc.order, func(a, b int) int {
		if states[a].c.Rate != states[b].c.Rate {
			if states[a].c.Rate > states[b].c.Rate {
				return -1
			}
			return 1
		}
		return states[a].c.ID - states[b].c.ID
	})
	for id := range sc.commsByLink {
		sc.commsByLink[id] = sc.commsByLink[id][:0]
	}
	for _, i := range sc.order {
		for _, step := range states[i].steps {
			for _, id := range step {
				sc.commsByLink[id] = append(sc.commsByLink[id], i)
			}
		}
	}
	return loads
}

// removeFromHeaviest tries to delete link id from the heaviest multi-path
// communication using it, per the Section 5.5 tie-walk ("unless this
// removal would break its last remaining path […] we consider removing the
// second communication, and so on"). It reports whether a removal was
// applied; on success sc.touched lists the removing communication's
// pre-removal links.
func removeFromHeaviest(m *mesh.Mesh, loads *route.LoadTracker, sc *prScratch, id int) bool {
	from := m.LinkByID(id).From
	for _, i := range sc.commsByLink[id] {
		st := &sc.states[i]
		if !st.canRemove(from) {
			continue
		}
		// Every load change of this removal hits links of the pre-removal
		// DAG (the post-removal DAG is a subset): record them for the
		// caller's heap re-push.
		sc.touched = sc.touched[:0]
		for _, step := range st.steps {
			sc.touched = append(sc.touched, step...)
		}
		st.addShares(loads, -1)
		st.remove(m, sc, id)
		st.addShares(loads, +1)
		if !st.multi {
			sc.multiLeft--
		}
		// Rebuild the link→comm index entries for this communication:
		// mark the surviving links, then drop i from the pre-removal
		// links that no longer carry it (a subset of touched).
		sc.markGen++
		for _, step := range st.steps {
			for _, lid := range step {
				sc.mark[lid] = sc.markGen
			}
		}
		for _, lid := range sc.touched {
			if sc.mark[lid] == sc.markGen {
				continue
			}
			list := sc.commsByLink[lid]
			for j, ci := range list {
				if ci == i {
					sc.commsByLink[lid] = append(list[:j], list[j+1:]...)
					break
				}
			}
		}
		return true
	}
	return false
}

// addShares adds (sign=+1) or removes (sign=-1) the communication's
// virtual loads: rate/|steps[t]| on each allowed link of step t, or
// rate/initSizes[t] under the StaticShares ablation.
func (st *prState) addShares(loads *route.LoadTracker, sign float64) {
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

// refreshMulti recomputes whether more than one path remains.
func (st *prState) refreshMulti() {
	st.multi = false
	for _, step := range st.steps {
		if len(step) > 1 {
			st.multi = true
			return
		}
	}
}

// canRemove reports whether deleting the DAG's link leaving from keeps at
// least one src→dst path: whether the link's step lists another link (see
// Removability above). Callers reach it through the link→comm incidence
// index, which lists exactly the communications whose DAG contains the
// link.
func (st *prState) canRemove(from mesh.Coord) bool {
	return len(st.steps[mesh.Manhattan(st.c.Src, from)]) > 1
}

// remove deletes link id and prunes every link no longer on a src→dst
// path (forward ∩ backward reachability), the paper's cleaning step.
func (st *prState) remove(m *mesh.Mesh, sc *prScratch, id int) {
	// Forward-reachable cores per diagonal level.
	sc.fwd = levels(sc.fwd, len(st.steps)+1, m)
	sc.fwd[0].Add(st.c.Src)
	for t, step := range st.steps {
		for _, lid := range step {
			if lid == id {
				continue
			}
			if sc.fwd[t].HasIdx(int(sc.linkFrom[lid])) {
				sc.fwd[t+1].AddIdx(int(sc.linkTo[lid]))
			}
		}
	}
	// Backward-reachable cores per level.
	sc.bwd = levels(sc.bwd, len(st.steps)+1, m)
	sc.bwd[len(st.steps)].Add(st.c.Dst)
	for t := len(st.steps) - 1; t >= 0; t-- {
		for _, lid := range st.steps[t] {
			if lid == id {
				continue
			}
			if sc.bwd[t+1].HasIdx(int(sc.linkTo[lid])) {
				sc.bwd[t].AddIdx(int(sc.linkFrom[lid]))
			}
		}
	}
	for t, step := range st.steps {
		kept := step[:0]
		for _, lid := range step {
			if lid == id {
				continue
			}
			if sc.fwd[t].HasIdx(int(sc.linkFrom[lid])) && sc.bwd[t+1].HasIdx(int(sc.linkTo[lid])) {
				kept = append(kept, lid)
			}
		}
		if len(kept) == 0 {
			panic("heur: PR pruned a communication to zero paths")
		}
		st.steps[t] = kept
	}
	st.refreshMulti()
}
