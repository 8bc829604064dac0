package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"runtime"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// The sweep-fig workload is the researcher's path to the paper's figures:
// the canned fig7a sweep (every heuristic plus BEST) streamed into CSV and
// JSONL sinks, then an optimality-gap sweep shaped like
// examples/specs/optgap.json streamed into the gap sinks. One round is
// one of each; a run repeats rounds for the measured phase.

// pinnedSweepDigest is the digest of one round's output streams at the
// default seed. For any other seed the reference is a serial Workers=1
// round run after the measured phase.
const (
	pinnedSeed        = 1
	pinnedSweepDigest = "2e965535a183b7b775d361fb90c935878cd05f532ad261e13c75ee57e75af61d"
)

// sweepFigSpecs returns the two specs of a round at the given seed.
func sweepFigSpecs(cfg config) (fig, gap scenario.Spec, err error) {
	fig, err = experiments.SpecByID("fig7a")
	if err != nil {
		return fig, gap, err
	}
	fig.Seed, fig.Trials = cfg.Seed, 16
	gap = scenario.Spec{
		ID: "optgap", Title: "optimality gap: heuristics vs exact OPT on 4x4",
		Source: "uniform", Mesh: "4x4",
		Params: scenario.Params{WMin: 100, WMax: 900},
		Axis:   scenario.AxisN, Points: []float64{4, 5, 6, 7, 8},
		Trials: 400, Seed: cfg.Seed,
		Policies: []string{"XY", "SG", "IG", "TB", "XYI", "PR", "BEST"},
	}
	if cfg.Short {
		fig.Points, fig.Trials = fig.Points[:4], 2
		gap.Trials = 4
	}
	return fig, gap, nil
}

// sweepFig is one set-up of the workload: the decoded specs.
type sweepFig struct {
	fig, gap scenario.Spec
	workers  int
}

// roundTrials is the number of (point, trial) instances in one round.
func (w *sweepFig) roundTrials() int {
	return len(w.fig.Points)*w.fig.Trials + len(w.gap.Points)*w.gap.Trials
}

// setupSweepFig decodes both specs from their JSON form, as a researcher's
// spec files are, and warms the engine with a small round.
func setupSweepFig(cfg config, tr *tracer) (*sweepFig, error) {
	fig, gap, err := sweepFigSpecs(cfg)
	if err != nil {
		return nil, err
	}
	w := &sweepFig{workers: runtime.NumCPU()}
	for _, p := range []struct {
		src scenario.Spec
		dst *scenario.Spec
	}{{fig, &w.fig}, {gap, &w.gap}} {
		var buf bytes.Buffer
		if err := p.src.EncodeJSON(&buf); err != nil {
			return nil, err
		}
		sp := tr.begin("scenario.decode", "", nil)
		*p.dst, err = scenario.DecodeJSON(&buf)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	warm := &sweepFig{fig: w.fig, gap: w.gap, workers: w.workers}
	warm.fig.Trials, warm.gap.Trials = 2, 8
	if _, err := warm.round(nil, w.workers); err != nil {
		return nil, err
	}
	return w, nil
}

// roundResult is one round's outcome.
type roundResult struct {
	digest   string
	wall     time.Duration
	figWall  time.Duration
	pointLat []float64 // fig7a point latencies, ms
	gapBelow int       // OptGap ratios below 1
}

// round runs the fig7a sweep and the gap sweep once, hashing every output
// stream, and times each fig7a point from its first trial to its emission.
func (w *sweepFig) round(tr *tracer, workers int) (roundResult, error) {
	var res roundResult
	streams := make([]hash.Hash, 5)
	for i := range streams {
		streams[i] = sha256.New()
	}
	t0 := time.Now()

	starts := newTrialClock(len(w.fig.Points))
	root := tr.begin("experiments.sweep", w.fig.ID, nil)
	ts := &timingSink{tr: tr, parent: &root, last: time.Now(), clock: starts,
		sinks: []experiments.Sink{
			experiments.NewCSVSink(streams[0], streams[1]),
			experiments.NewJSONLSink(streams[2]),
		}}
	err := experiments.Sweep(w.fig, experiments.SweepOptions{Workers: workers, TrialStart: starts.start}, ts)
	tr.end(root)
	if err != nil {
		return res, err
	}
	res.pointLat = ts.pointLat
	res.figWall = time.Since(t0)

	root = tr.begin("experiments.optgap", w.gap.ID, nil)
	gs := &timingGapSink{timingSink: timingSink{tr: tr, parent: &root, last: time.Now()},
		sinks: []experiments.GapSink{
			experiments.NewGapCSVSink(streams[3]),
			experiments.NewGapMarkdownSink(streams[4]),
		}}
	err = experiments.OptGap(w.gap, experiments.GapOptions{Workers: workers}, gs)
	tr.end(root)
	if err != nil {
		return res, err
	}
	res.wall = time.Since(t0)
	res.gapBelow = gs.below

	all := sha256.New()
	for _, h := range streams {
		all.Write(h.Sum(nil))
	}
	res.digest = hex.EncodeToString(all.Sum(nil))
	return res, nil
}

// trialClock records, per point, when its first and last trial started.
type trialClock struct {
	mu          sync.Mutex
	first, last []time.Time
}

func newTrialClock(points int) *trialClock {
	return &trialClock{first: make([]time.Time, points), last: make([]time.Time, points)}
}

// get returns when the point's first and last trial started.
func (c *trialClock) get(point int) (first, last time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.first[point], c.last[point]
}

func (c *trialClock) start(point, _ int) {
	now := time.Now()
	c.mu.Lock()
	if c.first[point].IsZero() {
		c.first[point] = now
	}
	c.last[point] = now
	c.mu.Unlock()
}

// timingSink times the gap between point emissions and the time spent
// inside the wrapped sinks. The merge stage calls sinks from one goroutine.
type timingSink struct {
	tr       *tracer
	parent   *span
	last     time.Time
	clock    *trialClock
	sinks    []experiments.Sink
	pointLat []float64
}

func (s *timingSink) Begin(meta experiments.SweepMeta) error {
	for _, k := range s.sinks {
		if err := k.Begin(meta); err != nil {
			return err
		}
	}
	return nil
}

func (s *timingSink) Point(pr experiments.PointResult) error {
	return s.emit(pr.Index, func() error {
		for _, k := range s.sinks {
			if err := k.Point(pr); err != nil {
				return err
			}
		}
		return nil
	})
}

// emit records one point: a span from the previous emission to the end of
// this one, with the sink calls as its child.
func (s *timingSink) emit(index int, write func() error) error {
	arrived := time.Now()
	if s.clock != nil {
		first, last := s.clock.get(index)
		s.pointLat = append(s.pointLat, ms(arrived.Sub(first)))
		s.tr.add("experiments.point_tail", "", s.parent, last, arrived)
	}
	if s.tr == nil {
		err := write()
		s.last = time.Now()
		return err
	}
	pt := s.tr.begin("experiments.point", "", s.parent)
	pt.Start = int64(s.last.Sub(s.tr.t0))
	sk := s.tr.begin("experiments.sink", "", &pt)
	err := write()
	s.tr.end(sk)
	s.tr.end(pt)
	s.last = time.Now()
	return err
}

func (s *timingSink) End() error {
	for _, k := range s.sinks {
		if err := k.End(); err != nil {
			return err
		}
	}
	return nil
}

// timingGapSink is timingSink for gap sweeps; it also counts gap ratios
// below 1, which a single-path heuristic can never have.
type timingGapSink struct {
	timingSink
	sinks []experiments.GapSink
	below int
}

func (s *timingGapSink) Begin(meta experiments.GapMeta) error {
	for _, k := range s.sinks {
		if err := k.Begin(meta); err != nil {
			return err
		}
	}
	return nil
}

func (s *timingGapSink) Point(gp experiments.GapPoint) error {
	for i, g := range gp.MeanGap {
		if gp.Matched[i] > 0 && g < 1 {
			s.below++
		}
	}
	return s.emit(gp.Index, func() error {
		for _, k := range s.sinks {
			if err := k.Point(gp); err != nil {
				return err
			}
		}
		return nil
	})
}

func (s *timingGapSink) End() error {
	for _, k := range s.sinks {
		if err := k.End(); err != nil {
			return err
		}
	}
	return nil
}

// rounds repeats rounds until d has passed (at least one).
func (w *sweepFig) rounds(tr *tracer, d time.Duration) ([]roundResult, error) {
	var out []roundResult
	for t0 := time.Now(); len(out) == 0 || time.Since(t0) < d; {
		r, err := w.round(tr, w.workers)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// checkRounds compares every round's digest with the reference and
// counts gap ratios below 1.
func (w *sweepFig) checkRounds(cfg config, rep *report, rounds []roundResult) error {
	want := pinnedSweepDigest
	if cfg.Seed != pinnedSeed || cfg.Short {
		ref, err := w.round(nil, 1)
		if err != nil {
			return err
		}
		want = ref.digest
	}
	for i, r := range rounds {
		if r.digest != want {
			rep.problem("sweep-fig: round %d digest %s, want %s", i, r.digest, want)
			rep.Failed += w.roundTrials()
		}
		if r.gapBelow > 0 {
			rep.problem("sweep-fig: round %d has %d optimality-gap ratios below 1", i, r.gapBelow)
		}
	}
	return nil
}

// rates returns the medians over rounds of instances per second: whole
// rounds, the fig7a part and the gap part.
func (w *sweepFig) rates(rounds []roundResult) (all, fig, gap float64) {
	var a, f, g []float64
	figTrials := float64(len(w.fig.Points) * w.fig.Trials)
	gapTrials := float64(len(w.gap.Points) * w.gap.Trials)
	for _, r := range rounds {
		a = append(a, (figTrials+gapTrials)/r.wall.Seconds())
		f = append(f, figTrials/r.figWall.Seconds())
		g = append(g, gapTrials/(r.wall-r.figWall).Seconds())
	}
	return median(a), median(f), median(g)
}

// runSweepFig is the sweep-fig workload.
func runSweepFig(cfg config) (*report, error) {
	rep := &report{Detail: make(map[string]float64)}
	if cfg.Trace {
		return traceSweepFig(cfg, rep)
	}
	w, setup, err := repeatSetup(func() (*sweepFig, error) { return setupSweepFig(cfg, nil) }, func(*sweepFig) {})
	if err != nil {
		return nil, err
	}
	rep.Setup = setup
	rounds, err := w.rounds(nil, cfg.measured())
	if err != nil {
		return nil, err
	}
	rep.Attempted = len(rounds) * w.roundTrials()
	if err := w.checkRounds(cfg, rep, rounds); err != nil {
		return nil, err
	}
	var lat, walls []float64
	for _, r := range rounds {
		lat = append(lat, r.pointLat...)
		walls = append(walls, ms(r.wall))
	}
	rate, figRate, gapRate := w.rates(rounds)
	rep.E2E = map[string]metric{
		"ops_per_s": {rate, "1/s"},
		"op_p50_ms": {percentile(walls, 50), "ms"},
	}
	d := rep.Detail
	d["rounds"], d["round_p90_ms"] = float64(len(rounds)), percentile(walls, 90)
	d["round_trials"] = float64(w.roundTrials())
	d["sweep_trials_per_s"], d["optgap_trials_per_s"] = figRate, gapRate
	d["point_p50_ms"], d["point_p90_ms"], d["point_samples"] = percentile(lat, 50), percentile(lat, 90), float64(len(lat))
	d["fail_ratio"] = float64(rep.Failed) / float64(rep.Attempted)
	return rep, nil
}
