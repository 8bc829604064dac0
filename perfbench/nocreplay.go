package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/solve"
	"repro/internal/topo"
)

// The noc-replay workload is the paper's validation layer: fixed n=30
// communication sets on the 8x8 mesh, routed by PR and XY at set-up, each
// replayed in the discrete-event NoC simulator over a long horizon in
// three switching configurations, plus the same sets on torus:8x8 under
// TABLE.

// nocCfg is one replay configuration.
type nocCfg struct {
	name  string
	torus bool
	cfg   noc.Config
}

// nocCfgs are the four configurations; their names key the noc.* metrics.
func nocCfgs(horizon float64) []nocCfg {
	return []nocCfg{
		{name: "sf", cfg: noc.Config{Horizon: horizon, Warmup: horizon / 10}},
		{name: "ct", cfg: noc.Config{Horizon: horizon, Warmup: horizon / 10, Switching: noc.CutThrough}},
		{name: "buf4", cfg: noc.Config{Horizon: horizon, Warmup: horizon / 10, BufferPackets: 4}},
		{name: "torus", torus: true, cfg: noc.Config{Horizon: horizon, Warmup: horizon / 10}},
	}
}

// replay is one routed set under one configuration.
type replay struct {
	cfg     nocCfg
	policy  string
	set     comm.Set
	routing route.Routing
	// first is the outcome of its first replay; every later replay of
	// the same routing must match it.
	first *noc.Stats
}

// nocReplay is one set-up of the workload.
type nocReplay struct {
	ws      *noc.Workspace
	model   power.Model
	replays []*replay
}

// setupNocReplay draws the sets (redrawing until PR, XY and the torus
// TABLE routing are all feasible, so every replay has an operating point),
// routes them, and warms the simulator.
func setupNocReplay(cfg config, tr *tracer) (*nocReplay, error) {
	topos, err := parsePlatforms(tr, "8x8", "torus:8x8")
	if err != nil {
		return nil, err
	}
	m, torus := topos["8x8"].(*mesh.Mesh), topos["torus:8x8"]
	sets, horizon := 12, 1500.0
	if cfg.Short {
		sets, horizon = 1, 200
	}
	w := newNocReplay()
	rng := rand.New(rand.NewSource(cfg.Seed))
	dr := &drawers{tr: tr}
	for found, tries := 0, 0; found < sets; tries++ {
		if tries > 1000 {
			return nil, fmt.Errorf("noc-replay: no feasible n=30 set in %d draws", tries)
		}
		set, err := dr.draw(m, scenario.Params{N: 30, WMin: 100, WMax: 1500}, rng.Int63())
		if err != nil {
			return nil, err
		}
		ok, err := w.addSet(m, torus, set, horizon)
		if err != nil {
			return nil, err
		}
		if ok {
			found++
		}
	}
	for _, rp := range w.replays[:len(nocCfgs(0))] {
		if _, err := w.run(nil, rp); err != nil { // warm the pooled simulator
			return nil, err
		}
	}
	return w, nil
}

func newNocReplay() *nocReplay {
	return &nocReplay{ws: noc.NewWorkspace(), model: power.KimHorowitz()}
}

// addSet routes one set for every configuration — PR and XY on the mesh,
// TABLE on the torus — and keeps the routings when all are feasible.
func (w *nocReplay) addSet(m *mesh.Mesh, torus topo.Topology, set comm.Set, horizon float64) (bool, error) {
	var routed []*replay
	for _, c := range nocCfgs(horizon) {
		for _, policy := range []string{"PR", "XY"} {
			in := solve.Instance{Mesh: m, Model: w.model, Comms: set}
			if c.torus {
				if policy == "XY" {
					continue
				}
				policy, in = "TABLE", solve.Instance{Topo: torus, Model: w.model, Comms: set}
			}
			r, err := solve.Route(policy, in, solve.Options{})
			if err != nil {
				return false, err
			}
			routed = append(routed, &replay{cfg: c, policy: policy, set: set, routing: r})
		}
	}
	if !w.feasible(routed) {
		return false, nil
	}
	w.replays = append(w.replays, routed...)
	return true, nil
}

// feasible reports whether every routing has an operating point.
func (w *nocReplay) feasible(routed []*replay) bool {
	for _, rp := range routed {
		if _, err := noc.New(rp.routing, w.model, rp.cfg.cfg); err != nil {
			return false
		}
	}
	return true
}

// run binds the pooled simulator to one routing and runs it.
func (w *nocReplay) run(tr *tracer, rp *replay) (*noc.Stats, error) {
	root := tr.begin("noc.replay", rp.cfg.name, nil)
	defer tr.end(root)
	sp := tr.begin("noc.bind", rp.cfg.name, &root)
	sim, err := w.ws.Simulator(rp.routing, w.model, rp.cfg.cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("noc.run", rp.cfg.name, &root)
	st := sim.Run()
	tr.end(sp)
	return st, nil
}

// checkStats holds a replay's outcome to the simulator's identities and
// to its first replay; it returns the reasons it fails.
func checkStats(rp *replay, st *noc.Stats) []string {
	var bad []string
	if st.Injected != st.Delivered+st.Stalled+st.InFlight {
		bad = append(bad, fmt.Sprintf("injected %d != delivered %d + stalled %d + in flight %d",
			st.Injected, st.Delivered, st.Stalled, st.InFlight))
	}
	e := st.Energy
	if e.TotalNJ != e.RouterTotalNJ+e.LinkTotalNJ+e.BufferTotalNJ {
		bad = append(bad, fmt.Sprintf("energy total %g != router %g + link %g + buffer %g",
			e.TotalNJ, e.RouterTotalNJ, e.LinkTotalNJ, e.BufferTotalNJ))
	}
	if f := rp.first; f != nil && (f.Injected != st.Injected || f.Delivered != st.Delivered ||
		f.Stalled != st.Stalled || f.Energy.TotalNJ != e.TotalNJ) {
		bad = append(bad, "outcome differs from the first replay of the same routing")
	}
	return bad
}

// nocTotals accumulates replays per configuration.
type nocTotals struct {
	runs, injected, delivered, stalled int
}

// replayRounds replays every routing once per round, one after another,
// until d has passed (at least one round), checking each outcome. It
// returns each replay's host time, the totals per configuration and each
// round's injected packets per host second.
func (w *nocReplay) replayRounds(tr *tracer, d time.Duration, rep *report) (lat []float64, totals map[string]*nocTotals, rates []float64, err error) {
	totals = make(map[string]*nocTotals)
	for t0 := time.Now(); len(lat) == 0 || time.Since(t0) < d; {
		start := time.Now()
		var packets int
		for _, rp := range w.replays {
			began := time.Now()
			st, err := w.run(tr, rp)
			if err != nil {
				return nil, nil, nil, err
			}
			lat = append(lat, ms(time.Since(began)))
			packets += st.Injected
			rep.Attempted++
			if bad := checkStats(rp, st); len(bad) > 0 {
				rep.Failed++
				for _, b := range bad {
					rep.problem("noc-replay %s/%s: %s", rp.cfg.name, rp.policy, b)
				}
			}
			if rp.first == nil {
				rp.first = st
			}
			t := totals[rp.cfg.name]
			if t == nil {
				t = &nocTotals{}
				totals[rp.cfg.name] = t
			}
			t.runs++
			t.injected += st.Injected
			t.delivered += st.Delivered
			t.stalled += st.Stalled
		}
		rates = append(rates, float64(packets)/time.Since(start).Seconds())
	}
	return lat, totals, rates, nil
}

// runNocReplay is the noc-replay workload.
func runNocReplay(cfg config) (*report, error) {
	rep := &report{Detail: make(map[string]float64)}
	if cfg.Trace {
		return traceNocReplay(cfg, rep)
	}
	w, setup, err := repeatSetup(func() (*nocReplay, error) { return setupNocReplay(cfg, nil) }, func(*nocReplay) {})
	if err != nil {
		return nil, err
	}
	rep.Setup = setup
	lat, totals, rates, err := w.replayRounds(nil, cfg.measured(), rep)
	if err != nil {
		return nil, err
	}
	rate := median(rates)
	p50, p90 := percentile(lat, 50), percentile(lat, 90)
	rep.E2E = map[string]metric{
		"ops_per_s": {rate, "1/s"},
		"op_p50_ms": {p50, "ms"},
	}
	d := rep.Detail
	d["sim_packets_per_s"] = rate
	d["replay_p50_ms"], d["replay_p90_ms"], d["replay_samples"] = p50, p90, float64(len(lat))
	d["rounds"] = float64(len(rates))
	d["fail_ratio"] = float64(rep.Failed) / float64(rep.Attempted)
	for name, t := range totals {
		d["packets."+name] = float64(t.injected)
	}
	return rep, nil
}
