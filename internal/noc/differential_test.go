package noc

// Differential pinning of the arena engine against the historical
// pointer/container-heap engine (refsim_test.go, with the same horizon
// accounting fixes applied): identical Stats — every float bit for bit —
// and identical delivery sequences, across seeded random instances, both
// switching modes, finite and infinite buffers, with and without a
// virtual-channel assignment, a continuous power model (more link
// frequencies than queue lanes) and multipath routings (several flows per
// communication). (time, seq) totally orders events, so the reference
// heap and the production heap-plus-lanes queue must pop identically; any
// divergence is an engine bug, not tie-break noise. The reference engine
// addresses links through the mesh, so torus routings are pinned instead
// against the production engine with every lane detached — the all-heap
// queue discipline the mesh cases pin to the reference.

import (
	"reflect"
	"testing"

	"repro/internal/deadlock"
	"repro/internal/mesh"
	"repro/internal/multipath"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/tabroute"
	"repro/internal/topo/torus"
	"repro/internal/workload"
)

// diffConfigs is the configuration matrix every instance runs under.
func diffConfigs() []Config {
	return []Config{
		{Horizon: 300, Warmup: 50},
		{Horizon: 300, Warmup: 50, Switching: CutThrough},
		{Horizon: 300, Warmup: 50, BufferPackets: 2},
		{Horizon: 300, Warmup: 50, Switching: CutThrough, BufferPackets: 2},
	}
}

// runBoth executes the same instance on both engines and compares Stats
// and delivery order. classes may be nil. Returns false when the routing
// has no operating point (then both engines must agree on that too).
func runBoth(t *testing.T, r route.Routing, model power.Model, cfg Config, classes [][]int, label string) bool {
	t.Helper()

	ref, refErr := refNew(r, model, cfg)
	sim, err := New(r, model, cfg)
	if (refErr == nil) != (err == nil) {
		t.Fatalf("%s: feasibility disagrees: ref err %v, new err %v", label, refErr, err)
	}
	if err != nil {
		return false
	}
	if classes != nil {
		ref.assignClasses(classes)
		if err := sim.AssignClasses(classes); err != nil {
			t.Fatalf("%s: AssignClasses: %v", label, err)
		}
	}

	var refDel, newDel []Delivery
	ref.onDeliver = func(d Delivery) { refDel = append(refDel, d) }
	sim.Observe(func(d Delivery) { newDel = append(newDel, d) })

	compareRuns(t, label, ref.run(), sim.Run(), refDel, newDel)
	return true
}

// compareRuns fails the test unless two runs produced identical Stats and
// identical delivery sequences.
func compareRuns(t *testing.T, label string, refStats, newStats *Stats, refDel, newDel []Delivery) {
	t.Helper()
	if !reflect.DeepEqual(refStats, newStats) {
		t.Errorf("%s: Stats diverge\nref: %+v\nnew: %+v", label, refStats, newStats)
	}
	if !reflect.DeepEqual(refDel, newDel) {
		n := len(refDel)
		if len(newDel) < n {
			n = len(newDel)
		}
		at := -1
		for i := 0; i < n; i++ {
			if refDel[i] != newDel[i] {
				at = i
				break
			}
		}
		t.Errorf("%s: delivery sequences diverge (ref %d, new %d events, first mismatch at %d)",
			label, len(refDel), len(newDel), at)
	}
}

// xyRoutingOf routes every communication of a seeded uniform workload
// along XY — deterministic paths with plenty of link sharing.
func xyRoutingOf(m *mesh.Mesh, seed int64, n int, wmin, wmax float64) route.Routing {
	set := workload.New(m, seed).Uniform(n, wmin, wmax)
	flows := make([]route.Flow, 0, len(set))
	for _, c := range set {
		flows = append(flows, route.Flow{Comm: c, Path: route.XY(c.Src, c.Dst)})
	}
	return route.Routing{Mesh: m, Flows: flows}
}

// TestDifferentialSeededInstances pins the engines equal across ≥40
// seeded instances × both switching modes × finite and infinite buffers.
func TestDifferentialSeededInstances(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	feasible := 0
	for seed := int64(0); seed < 50; seed++ {
		r := xyRoutingOf(m, seed, 12, 100, 700)
		ran := false
		for _, cfg := range diffConfigs() {
			if runBoth(t, r, model, cfg, nil, labelOf(seed, cfg)) {
				ran = true
			}
		}
		if ran {
			feasible++
		}
	}
	if feasible < 40 {
		t.Fatalf("only %d/50 seeded instances were feasible; the differential matrix is undersized", feasible)
	}
}

func labelOf(seed int64, cfg Config) string {
	l := string(rune('0'+seed/10)) + string(rune('0'+seed%10)) + "/" + cfg.Switching.String()
	if cfg.BufferPackets > 0 {
		l += "/finite"
	}
	return l
}

// TestDifferentialBackpressureAndVCs covers the hard paths the random
// instances miss: a cyclic-buffer ring under near-saturation (waiter
// wake chains, deadlock freeze) and the minimal-cycle routing with the
// escape-channel class assignment installed.
func TestDifferentialBackpressureAndVCs(t *testing.T) {
	ring, model := ringRouting(1150)
	for _, cfg := range []Config{
		{Horizon: 2000, BufferPackets: 1},
		{Horizon: 2000, BufferPackets: 1, Switching: CutThrough},
		{Horizon: 1500, Warmup: 100, BufferPackets: 64},
	} {
		runBoth(t, ring, model, cfg, nil, "ring")
	}

	cyc, model := minimalCycleRouting(1200)
	assign := deadlock.EscapeChannels(cyc)
	if err := assign.Validate(cyc); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Horizon: 2000, Warmup: 200, BufferPackets: 1},
		{Horizon: 2000, Warmup: 200, BufferPackets: 1, Switching: CutThrough},
	} {
		runBoth(t, cyc, model, cfg, nil, "cycle/plain")
		runBoth(t, cyc, model, cfg, assign.Classes, "cycle/vcs")
	}
}

// TestDifferentialPooledReuse runs the whole seeded matrix again through
// one pooled Workspace simulator: reuse across routings and
// configurations must stay byte-identical to the reference, trial after
// trial.
func TestDifferentialPooledReuse(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	ws := NewWorkspace()
	for seed := int64(0); seed < 20; seed++ {
		r := xyRoutingOf(m, seed, 12, 100, 700)
		for _, cfg := range diffConfigs() {
			ref, refErr := refNew(r, model, cfg)
			sim, err := ws.Simulator(r, model, cfg)
			if (refErr == nil) != (err == nil) {
				t.Fatalf("seed %d: feasibility disagrees: ref %v, pooled %v", seed, refErr, err)
			}
			if err != nil {
				continue
			}
			refStats := ref.run()
			newStats := sim.Run()
			if !reflect.DeepEqual(refStats, newStats) {
				t.Errorf("seed %d %v: pooled Stats diverge from reference", seed, cfg.Switching)
			}
		}
	}
}

// TestDifferentialContinuousModel replays XY routings under the
// continuous power model, which gives nearly every link its own
// frequency: more frequencies than lanes, so links past the lane cap
// schedule on the heap next to laned ones.
func TestDifferentialContinuousModel(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitzContinuous()
	capped := 0
	for seed := int64(0); seed < 12; seed++ {
		r := xyRoutingOf(m, seed, 12, 100, 700)
		sim, err := New(r, model, Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sim.freqLanes == maxLanes && countLinks(sim, noLane) > 0 {
			capped++
		}
		for _, cfg := range diffConfigs() {
			runBoth(t, r, model, cfg, nil, "continuous/"+labelOf(seed, cfg))
		}
	}
	if capped == 0 {
		t.Fatal("no instance filled every lane and left links on the heap; the lane cap goes untested")
	}
}

// countLinks counts the used links assigned to lane l.
func countLinks(s *Simulator, l int) int {
	n := 0
	for id, ll := range s.linkLane {
		if s.links[id].freq > 0 && int(ll) == l {
			n++
		}
	}
	return n
}

// TestDifferentialMultipath replays equal-split multipath routings,
// whose communications own several flows: per-communication accounting
// must sum the flows' deliveries in the reference's order.
func TestDifferentialMultipath(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	split := 0
	for seed := int64(0); seed < 12; seed++ {
		set := workload.New(m, seed).Uniform(10, 200, 1500)
		for _, s := range []int{2, 4} {
			r, err := multipath.EqualSplit{S: s}.Route(m, model, set)
			if err != nil {
				continue
			}
			if len(r.Flows) > len(set) {
				split++
			}
			for _, cfg := range diffConfigs() {
				runBoth(t, r, model, cfg, nil, "multipath/"+labelOf(seed, cfg))
			}
		}
	}
	if split == 0 {
		t.Fatal("no routing split a communication over several flows")
	}
}

// TestDifferentialTorusTable replays TABLE routings on torus:8x8 and
// pins them against the same engine with every lane detached.
func TestDifferentialTorusTable(t *testing.T) {
	tor, err := torus.New(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	model := power.KimHorowitz()
	ran := 0
	for seed := int64(0); seed < 12; seed++ {
		set := workload.New(tor.Carrier(), seed).Uniform(16, 100, 900)
		r, err := tabroute.Solver{}.Route(solve.Instance{Topo: tor, Model: model, Comms: set}, solve.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, cfg := range diffConfigs() {
			if runLanedAndHeapOnly(t, r, model, cfg, "torus/"+labelOf(seed, cfg)) {
				ran++
			}
		}
	}
	if ran == 0 {
		t.Fatal("no feasible torus instance; the matrix is empty")
	}
}

// runLanedAndHeapOnly runs a routing twice, once as bound and once with
// every link detached from its lane, and compares the runs. It returns
// false when the routing has no operating point.
func runLanedAndHeapOnly(t *testing.T, r route.Routing, model power.Model, cfg Config, label string) bool {
	t.Helper()
	heap, err := New(r, model, cfg)
	if err != nil {
		return false
	}
	for id := range heap.linkLane {
		heap.linkLane[id] = noLane
	}
	laned, err := New(r, model, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if laned.freqLanes == 0 {
		t.Fatalf("%s: no link has a lane", label)
	}
	var heapDel, lanedDel []Delivery
	heap.Observe(func(d Delivery) { heapDel = append(heapDel, d) })
	laned.Observe(func(d Delivery) { lanedDel = append(lanedDel, d) })
	compareRuns(t, label, heap.Run(), laned.Run(), heapDel, lanedDel)
	return true
}
