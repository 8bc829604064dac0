package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/mesh"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/solve"
	"repro/internal/topo"
)

// The traced run. It runs the workload's measured phase twice for half the
// time each, untraced and then traced; the difference is the tracing
// overhead. It then probes every layer the workload's own traffic did not
// reach, over the workload's own instances, so each traced run reports
// every per-layer metric. All spans wrap calls the benchmark makes into a
// layer's public functions; the program itself is not instrumented.

// probePolicies are the policies whose Solver.Route the traced run times.
var probePolicies = []string{"XY", "XYI", "PR", "SA", "TABLE", "BEST", "OPT"}

// topoFamilies are the platforms whose topo.Parse the traced run times.
var topoFamilies = []struct{ family, spec string }{
	{"mesh", "8x8"}, {"torus", "torus:8x8"}, {"circulant", "circulant:27:1,3,9"},
}

// layerRun collects what the per-layer metrics need beyond the spans.
type layerRun struct {
	cfg             config
	tr              *tracer
	rep             *report
	stats           serve.Stats
	hitBytes        float64
	allocsPerSolve  float64
	unloaded        []float64 // ms per probe item, over HTTP without load
	direct          []float64 // ms per probe item, route plus evaluate
	overheadUS      []float64
	waitMS          []float64
	expOverhead     float64
	allocsPerTrial  float64
	noc             map[string]*nocTotals
	nocAllocsPerRun float64
	traceOverhead   float64
}

func newLayerRun(cfg config, rep *report) *layerRun {
	rep.Trace = newTracer()
	return &layerRun{cfg: cfg, tr: rep.Trace, rep: rep}
}

// probeCount is how many of the workload's n instances the probe uses.
func probeCount(cfg config, n int) int {
	if cfg.Short {
		return min(n, 6)
	}
	return min(n, 48)
}

// probeTopo times topo.Parse, next-hop table build included, per family.
func (lr *layerRun) probeTopo() error {
	for _, f := range topoFamilies {
		for i := 0; i < 10; i++ {
			sp := lr.tr.begin("topo.parse", f.family, nil)
			_, err := topo.Parse(f.spec)
			lr.tr.end(sp)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// applies reports whether the probe routes the instance under policy:
// TABLE alone on non-mesh platforms, OPT only where it is tractable.
func applies(in solve.Instance, policy string) bool {
	if in.Mesh == nil {
		return policy == "TABLE"
	}
	if policy == "OPT" {
		return in.Mesh.NumCores() <= 16 && len(in.Comms) <= 8
	}
	return true
}

// probeSolve routes every probe instance under every applicable policy,
// and records each instance's own-policy route-plus-evaluate time. When
// no instance is small enough for OPT it also routes optgap-shaped ones.
func (lr *layerRun) probeSolve(items []solveItem) error {
	direct, err := lr.routeAll(items)
	if err != nil {
		return err
	}
	lr.direct = direct
	if slices.ContainsFunc(items, func(it solveItem) bool { return applies(it.in, "OPT") }) {
		return nil
	}
	small, err := optItems(lr.cfg, lr.tr)
	if err != nil {
		return err
	}
	_, err = lr.routeAll(small)
	return err
}

// routeAll routes the instances on one pooled workspace, timing Validate,
// Route and the evaluation, and returns each instance's own-policy
// route-plus-evaluate time in ms.
func (lr *layerRun) routeAll(items []solveItem) ([]float64, error) {
	ws := route.NewWorkspace()
	trackers := make(map[string]*route.LoadTracker)
	direct := make([]float64, len(items))
	for i, it := range items {
		root := lr.tr.begin("probe.instance", it.policy, nil)
		sp := lr.tr.begin("solve.validate", "", &root)
		err := it.in.Validate()
		lr.tr.end(sp)
		if err != nil {
			return nil, err
		}
		for _, p := range probePolicies {
			if !applies(it.in, p) {
				continue
			}
			s, err := solve.Lookup(p)
			if err != nil {
				return nil, err
			}
			opts := it.opts
			if p != it.policy {
				opts = solve.Options{Seed: 1, SAIters: saIters, ExactWorkers: 1}
			}
			opts.Workspace = ws
			t0 := time.Now()
			sp := lr.tr.begin("solve.route", p, &root)
			r, err := s.Route(it.in, opts)
			lr.tr.end(sp)
			if err != nil {
				continue // an infeasible OPT instance is an answer, not a failure
			}
			tp := it.in.Topology()
			t, ok := trackers[tp.Spec()]
			if !ok {
				t = route.NewLoadTrackerTopo(tp)
				trackers[tp.Spec()] = t
			}
			sp = lr.tr.begin("route.evaluate", "", &root)
			t.SetRouting(r)
			t.Evaluate(it.in.Model)
			lr.tr.end(sp)
			if p == it.policy {
				direct[i] = ms(time.Since(t0))
			}
		}
		lr.tr.end(root)
	}
	return direct, nil
}

// optItems draws instances shaped like the optimality-gap sweep's (4x4,
// n from 4 to 8) for workloads whose own instances are too large for OPT.
func optItems(cfg config, tr *tracer) ([]solveItem, error) {
	m := mesh.MustNew(4, 4)
	rng := rand.New(rand.NewSource(cfg.Seed))
	dr := &drawers{tr: tr}
	var items []solveItem
	for i := 0; i < 8; i++ {
		set, err := dr.draw(m, scenario.Params{N: 4 + i%5, WMin: 100, WMax: 900}, rng.Int63())
		if err != nil {
			return nil, err
		}
		it, err := newSolveItem(m, "4x4", "OPT", set, solve.Options{ExactWorkers: 1})
		if err != nil {
			return nil, err
		}
		items = append(items, it)
	}
	return items, nil
}

// probeServe times the service rim over the probe instances: the handler's
// JSON decoding and encoding, each request's unloaded round trip (its
// overhead is the round trip minus the direct solve), and, unless the
// workload's own traffic loaded the server, a closed-loop pass on every
// connection at once for the queue wait. It also requests the primed
// sweep for the cache-hit figures.
func (lr *layerRun) probeServe(w *solveOpen, items int, loaded bool) error {
	lr.unloaded = make([]float64, items)
	answers := make([][]byte, items)
	before := mallocs()
	for i := 0; i < items; i++ {
		t0 := time.Now()
		code, b, err := w.post("/solve", w.pool[i].body)
		t1 := time.Now()
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("probe /solve: status %d: %v", code, err)
		}
		lr.tr.add("serve.request", w.pool[i].policy, nil, t0, t1)
		lr.unloaded[i] = ms(t1.Sub(t0))
		lr.overheadUS = append(lr.overheadUS, 1000*(lr.unloaded[i]-lr.direct[i]))
		answers[i] = b
	}
	lr.allocsPerSolve = float64(mallocs()-before) / float64(items)

	// The handler's JSON work on the same requests and answers: a decoder
	// that refuses unknown fields, and an encoder.
	for i := 0; i < items; i++ {
		var resp serve.SolveResponse
		if err := json.Unmarshal(answers[i], &resp); err != nil {
			return err
		}
		root := lr.tr.begin("probe.codec", w.pool[i].policy, nil)
		sp := lr.tr.begin("serve.decode", "", &root)
		var req serve.SolveRequest
		dec := json.NewDecoder(bytes.NewReader(w.pool[i].body))
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		lr.tr.end(sp)
		if err != nil {
			return err
		}
		sp = lr.tr.begin("serve.encode", "", &root)
		err = json.NewEncoder(io.Discard).Encode(resp)
		lr.tr.end(sp)
		lr.tr.end(root)
		if err != nil {
			return err
		}
	}

	if !loaded {
		lat := make([]float64, items)
		ok := make([]bool, items)
		var wg sync.WaitGroup
		for c := 0; c < w.conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < items; i += w.conns {
					t0 := time.Now()
					code, _, err := w.post("/solve", w.pool[i].body)
					t1 := time.Now()
					lr.tr.add("serve.request", w.pool[i].policy, nil, t0, t1)
					lat[i], ok[i] = ms(t1.Sub(t0)), err == nil && code == http.StatusOK
				}
			}(c)
		}
		wg.Wait()
		for i, l := range lat {
			if !ok[i] {
				return fmt.Errorf("probe: /solve under load failed")
			}
			lr.waitMS = append(lr.waitMS, l-lr.unloaded[i])
		}
	}

	for i := 0; i < 20; i++ {
		t0 := time.Now()
		code, b, err := w.post("/sweep", w.hitReq)
		lr.tr.add("serve.hit", "", nil, t0, time.Now())
		if err != nil || code != http.StatusOK || !bytes.Equal(b, w.hitBytes) {
			lr.rep.problem("probe: /sweep cache hit differs from the primed stream")
		}
		lr.hitBytes = float64(len(b))
	}
	lr.stats = w.srv.Stats()
	return nil
}

// probeSweep streams one sweep through the timing sinks and replays its
// trials serially for the scheduler's share.
func (lr *layerRun) probeSweep(sp scenario.Spec) error {
	var buf bytes.Buffer
	if err := sp.EncodeJSON(&buf); err != nil {
		return err
	}
	s := lr.tr.begin("scenario.decode", "", nil)
	sp, err := scenario.DecodeJSON(&buf)
	lr.tr.end(s)
	if err != nil {
		return err
	}
	panel, err := experiments.PanelOf(sp)
	if err != nil {
		return err
	}
	clock := newTrialClock(len(panel.Points))
	root := lr.tr.begin("experiments.sweep", sp.ID, nil)
	ts := &timingSink{tr: lr.tr, parent: &root, last: time.Now(), clock: clock,
		sinks: []experiments.Sink{experiments.NewCSVSink(io.Discard, io.Discard), experiments.NewJSONLSink(io.Discard)}}
	before, t0 := mallocs(), time.Now()
	err = experiments.Sweep(sp, experiments.SweepOptions{Workers: runtime.NumCPU(), TrialStart: clock.start}, ts)
	wall := time.Since(t0)
	lr.tr.end(root)
	if err != nil {
		return err
	}
	trials := len(panel.Points) * sp.Trials
	lr.allocsPerTrial = float64(mallocs()-before) / float64(trials)
	return lr.schedulerShare(sp, wall)
}

// schedulerShare sets experiments.overhead_ratio: one minus the time of
// a serial (Workers=1) run of the same sweep over the parallel sweep's
// worker time, wall × workers. It is the share of the workers' time the
// parallel run spends on anything but the trials themselves.
func (lr *layerRun) schedulerShare(sp scenario.Spec, wall time.Duration) error {
	root := lr.tr.begin("experiments.serial", sp.ID, nil)
	t0 := time.Now()
	err := experiments.Sweep(sp, experiments.SweepOptions{Workers: 1}, experiments.NewJSONLSink(io.Discard))
	serial := time.Since(t0)
	lr.tr.end(root)
	if err != nil {
		return err
	}
	lr.expOverhead = 1 - serial.Seconds()/(float64(runtime.NumCPU())*wall.Seconds())
	return nil
}

// probeNoc replays up to two of the probe's 8x8 sets (drawing small ones
// when none is feasible under every configuration) once per configuration.
func (lr *layerRun) probeNoc(items []solveItem) error {
	topos, err := parsePlatforms(lr.tr, "8x8", "torus:8x8")
	if err != nil {
		return err
	}
	m, torus := topos["8x8"].(*mesh.Mesh), topos["torus:8x8"]
	w := newNocReplay()
	sets := 0
	for _, it := range items {
		if sets < 2 && it.in.Mesh != nil && it.in.Mesh.NumCores() == 64 {
			ok, err := w.addSet(m, torus, it.in.Comms, 500)
			if err != nil {
				return err
			}
			if ok {
				sets++
			}
		}
	}
	rng := rand.New(rand.NewSource(lr.cfg.Seed))
	dr := &drawers{tr: lr.tr}
	for tries := 0; sets < 2 && tries < 1000; tries++ {
		set, err := dr.draw(m, scenario.Params{N: 12, WMin: 100, WMax: 1500}, rng.Int63())
		if err != nil {
			return err
		}
		ok, err := w.addSet(m, torus, set, 500)
		if err != nil {
			return err
		}
		if ok {
			sets++
		}
	}
	before := mallocs()
	_, totals, _, err := w.replayRounds(lr.tr, 0, lr.rep)
	if err != nil {
		return err
	}
	lr.noc = totals
	lr.nocAllocsPerRun = float64(mallocs()-before) / float64(len(w.replays))
	return nil
}

// platformOf spells a topology the way a /solve request does: "PxQ" for
// a mesh, the topo.Parse spec otherwise.
func platformOf(tp topo.Topology) string {
	return strings.TrimPrefix(tp.Spec(), "mesh:")
}

// metrics turns the spans and the collected figures into the per-layer
// metrics.
func (lr *layerRun) metrics() map[string]metric {
	spans := lr.tr.snapshot()
	out := make(map[string]metric)
	p50 := func(name, attr string, unit time.Duration) float64 {
		return percentile(durations(spans, name, attr, unit), 50)
	}
	st := lr.stats
	hitBase := st.CacheHits + st.CacheMisses + st.CacheAttaches
	out["serve.overhead_us.p50"] = metric{percentile(lr.overheadUS, 50), "us"}
	out["serve.wait_ms.p50"] = metric{percentile(lr.waitMS, 50), "ms"}
	out["serve.wait_ms.p99"] = metric{percentile(lr.waitMS, 99), "ms"}
	out["serve.decode_us"] = metric{p50("serve.decode", "", time.Microsecond), "us"}
	out["serve.encode_us"] = metric{p50("serve.encode", "", time.Microsecond), "us"}
	out["serve.rejects"] = metric{float64(st.SolveRejects), "count"}
	out["serve.timeouts"] = metric{float64(st.Timeouts), "count"}
	out["serve.solves"] = metric{float64(st.Solves), "count"}
	out["serve.hit_ratio"] = metric{float64(st.CacheHits) / float64(max(hitBase, 1)), "ratio"}
	out["serve.hit_bytes"] = metric{lr.hitBytes, "bytes"}
	out["serve.allocs_per_solve"] = metric{lr.allocsPerSolve, "count"}
	for _, p := range probePolicies {
		d := durations(spans, "solve.route", p, time.Microsecond)
		out["solve.route_us."+p+".p50"] = metric{percentile(d, 50), "us"}
		out["solve.route_us."+p+".p99"] = metric{percentile(d, 99), "us"}
		out["solve.calls."+p] = metric{float64(len(d)), "count"}
	}
	out["solve.validate_us"] = metric{p50("solve.validate", "", time.Microsecond), "us"}
	out["route.evaluate_us.p50"] = metric{p50("route.evaluate", "", time.Microsecond), "us"}
	for _, f := range topoFamilies {
		out["topo.parse_ms."+f.family] = metric{p50("topo.parse", f.family, time.Millisecond), "ms"}
	}
	out["scenario.draw_us.p50"] = metric{p50("scenario.draw", "", time.Microsecond), "us"}
	out["scenario.decode_us"] = metric{p50("scenario.decode", "", time.Microsecond), "us"}
	points := durations(spans, "experiments.point", "", time.Millisecond)
	out["experiments.point_ms.p50"] = metric{percentile(points, 50), "ms"}
	out["experiments.point_ms.p99"] = metric{percentile(points, 99), "ms"}
	out["experiments.sink_us.p50"] = metric{p50("experiments.sink", "", time.Microsecond), "us"}
	out["experiments.point_tail_ms.p50"] = metric{p50("experiments.point_tail", "", time.Millisecond), "ms"}
	out["experiments.overhead_ratio"] = metric{lr.expOverhead, "ratio"}
	out["experiments.allocs_per_trial"] = metric{lr.allocsPerTrial, "count"}
	for _, c := range nocCfgs(0) {
		t := lr.noc[c.name]
		if t == nil {
			t = &nocTotals{}
		}
		run := durations(spans, "noc.run", c.name, time.Nanosecond)
		var runNS float64
		for _, r := range run {
			runNS += r
		}
		out["noc.bind_us."+c.name] = metric{p50("noc.bind", c.name, time.Microsecond), "us"}
		out["noc.run_ms."+c.name] = metric{p50("noc.run", c.name, time.Millisecond), "ms"}
		out["noc.ns_per_packet."+c.name] = metric{runNS / float64(max(t.injected, 1)), "ns"}
		out["noc.delivered_ratio."+c.name] = metric{float64(t.delivered) / float64(max(t.injected, 1)), "ratio"}
		out["noc.stalled."+c.name] = metric{float64(t.stalled) / float64(max(t.runs, 1)), "count"}
	}
	out["noc.allocs_per_run"] = metric{lr.nocAllocsPerRun, "count"}
	out["fail_ratio"] = metric{float64(lr.rep.Failed) / float64(max(lr.rep.Attempted, 1)), "ratio"}
	out["trace.overhead_ratio"] = metric{lr.traceOverhead, "ratio"}
	return out
}

// finishTrace checks that the spans nest and stores the metrics.
func (lr *layerRun) finishTrace() *report {
	if _, err := selfTimes(lr.tr.snapshot()); err != nil {
		lr.rep.problem("trace: %v", err)
	}
	lr.rep.Layers = lr.metrics()
	return lr.rep
}

// traceSolveOpen is the traced run of solve-open: the reference rate
// untraced, then traced, then the probe.
func traceSolveOpen(cfg config, rep *report) (*report, error) {
	lr := newLayerRun(cfg, rep)
	w, err := setupSolveOpen(cfg, lr.tr)
	if err != nil {
		return nil, err
	}
	defer w.close()
	half := cfg.measured() / 2
	cursor := 0
	rate := cfg.rate(refRate)
	plain := w.openLoop(rate, half, &cursor, nil)
	cursor = 0 // the traced phase offers the same requests
	traced := w.openLoop(rate, half, &cursor, lr.tr)
	a, b := summarize(rate, plain), summarize(rate, traced)
	rep.Attempted, rep.Failed = a.attempted+b.attempted, a.failed+b.failed
	w.check(rep, plain, traced)
	lr.traceOverhead = percentile(b.solveLat, 50)/percentile(a.solveLat, 50) - 1

	items := probeCount(cfg, len(w.pool))
	if err := lr.probeTopo(); err != nil {
		return nil, err
	}
	if err := lr.probeSolve(w.pool[:items]); err != nil {
		return nil, err
	}
	if err := lr.probeServe(w, items, true); err != nil {
		return nil, err
	}
	for _, arr := range traced {
		if !arr.hit && !arr.failed() && arr.item < items {
			lr.waitMS = append(lr.waitMS, arr.latency()-lr.unloaded[arr.item])
		}
	}
	if err := lr.probeSweep(hitSpec(cfg)); err != nil {
		return nil, err
	}
	if err := lr.probeNoc(w.pool[:items]); err != nil {
		return nil, err
	}
	rep.Detail["gen_late_ms.p99"] = percentile(b.lag, 99)
	return lr.finishTrace(), nil
}

// traceSweepFig is the traced run of sweep-fig.
func traceSweepFig(cfg config, rep *report) (*report, error) {
	lr := newLayerRun(cfg, rep)
	w, err := setupSweepFig(cfg, lr.tr)
	if err != nil {
		return nil, err
	}
	half := cfg.measured() / 2
	before := mallocs()
	plain, err := w.rounds(nil, half)
	if err != nil {
		return nil, err
	}
	lr.allocsPerTrial = float64(mallocs()-before) / float64(len(plain)*w.roundTrials())
	traced, err := w.rounds(lr.tr, half)
	if err != nil {
		return nil, err
	}
	all := append(plain, traced...)
	rep.Attempted = len(all) * w.roundTrials()
	if err := w.checkRounds(cfg, rep, all); err != nil {
		return nil, err
	}
	ra, _, _ := w.rates(plain)
	rb, _, _ := w.rates(traced)
	lr.traceOverhead = ra/rb - 1
	var figWall []float64
	for _, r := range traced {
		figWall = append(figWall, r.figWall.Seconds())
	}
	if err := lr.schedulerShare(w.fig, time.Duration(median(figWall)*float64(time.Second))); err != nil {
		return nil, err
	}

	items, err := sweepProbeItems(cfg, w, lr.tr)
	if err != nil {
		return nil, err
	}
	if err := lr.probeTopo(); err != nil {
		return nil, err
	}
	if err := lr.probeSolve(items); err != nil {
		return nil, err
	}
	svc, err := startService(cfg, items)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	if err := lr.probeServe(svc, len(items), false); err != nil {
		return nil, err
	}
	if err := lr.probeNoc(items); err != nil {
		return nil, err
	}
	return lr.finishTrace(), nil
}

// sweepProbeItems draws probe instances with the sweep's own parameters:
// fig7a points up to n=70 and the gap sweep's 4x4 points.
func sweepProbeItems(cfg config, w *sweepFig, tr *tracer) ([]solveItem, error) {
	n := probeCount(cfg, 1<<20)
	var items []solveItem
	dr := &drawers{tr: tr}
	rng := rand.New(rand.NewSource(cfg.Seed))
	policies := []string{"XY", "XYI", "PR", "BEST"}
	for _, part := range []struct {
		sp    scenario.Spec
		count int
	}{{w.fig, n * 3 / 4}, {w.gap, n / 4}} {
		p, err := experiments.PanelOf(part.sp)
		if err != nil {
			return nil, err
		}
		geom := part.sp.Mesh
		if geom == "" {
			geom = "8x8"
		}
		tp, err := topo.Parse(geom)
		if err != nil {
			return nil, err
		}
		for i := 0; i < part.count; i++ {
			pt := p.Points[i%len(p.Points)]
			if pt.W.N > 70 {
				pt = p.Points[i%3]
			}
			set, err := dr.draw(tp.(*mesh.Mesh), pt.W, rng.Int63())
			if err != nil {
				return nil, err
			}
			it, err := newSolveItem(tp, geom, policies[i%len(policies)], set, solve.Options{})
			if err != nil {
				return nil, err
			}
			items = append(items, it)
		}
	}
	return items, nil
}

// traceNocReplay is the traced run of noc-replay.
func traceNocReplay(cfg config, rep *report) (*report, error) {
	lr := newLayerRun(cfg, rep)
	w, err := setupNocReplay(cfg, lr.tr)
	if err != nil {
		return nil, err
	}
	half := cfg.measured() / 2
	before := mallocs()
	_, _, plain, err := w.replayRounds(nil, half, rep)
	if err != nil {
		return nil, err
	}
	lr.nocAllocsPerRun = float64(mallocs()-before) / float64(rep.Attempted)
	_, totals, traced, err := w.replayRounds(lr.tr, half, rep)
	if err != nil {
		return nil, err
	}
	lr.noc = totals
	lr.traceOverhead = median(plain)/median(traced) - 1

	var items []solveItem
	for _, rp := range w.replays {
		if rp.cfg.name != "sf" && rp.cfg.name != "torus" {
			continue // the same routings as sf
		}
		tp := rp.routing.Topology()
		it, err := newSolveItem(tp, platformOf(tp), rp.policy, rp.set, solve.Options{})
		if err != nil {
			return nil, err
		}
		items = append(items, it)
	}
	items = items[:probeCount(cfg, len(items))]
	if err := lr.probeTopo(); err != nil {
		return nil, err
	}
	if err := lr.probeSolve(items); err != nil {
		return nil, err
	}
	svc, err := startService(cfg, items)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	if err := lr.probeServe(svc, len(items), false); err != nil {
		return nil, err
	}
	nocSpec := scenario.Spec{
		ID: "noc-replay", Source: "uniform", Params: scenario.Params{N: 30, WMin: 100, WMax: 1500},
		Trials: 8, Seed: cfg.Seed, Policies: []string{"PR", "XY"},
	}
	if err := lr.probeSweep(nocSpec); err != nil {
		return nil, err
	}
	return lr.finishTrace(), nil
}
