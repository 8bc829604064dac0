package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/solve"
	"repro/internal/topo"
)

// The solve-open workload offers /solve traffic open-loop: requests go out
// on a fixed schedule whether or not earlier ones have been answered, so
// queueing shows up as latency. Every latency is timed from the request's
// scheduled send time.
const (
	// latencyLimit is the p99 limit a ladder rate must meet. With two
	// connections and requests that cost up to ~10 ms, a 20 ms limit sits
	// inside the service-time tail, and rates fail on timing noise long
	// before any backlog grows; 50 ms puts the limit at the knee.
	latencyLimit = 50 * time.Millisecond
	// refRate is the open-loop rate the reference latencies are taken at.
	refRate = 200.0
	// The ladder climbs from ladderStart to ladderStart+ladderRungs*
	// ladderStep times the saturation throughput until a rate fails the
	// limit, then bisects the last gap ladderSplit times.
	ladderStart = 0.6
	ladderStep  = 0.1
	ladderRungs = 10
	ladderSplit = 2
	// satBursts is how many separate closed-loop bursts the saturation
	// phase runs; its throughput is their median. Single-burst runs fell
	// into two groups about 20% apart, so one burst's start must not set
	// the run's figure.
	satBursts = 3
	// hitEvery makes every hitEvery-th arrival a /sweep request for the
	// spec primed at set-up: a cache hit.
	hitEvery = 20
	// giveUp is how late a send may run before the generator drops it;
	// a dropped send counts as failed.
	giveUp = 5 * latencyLimit
	// genLagBound is the generator's own lag (waking up after a request
	// was due) above which the run is invalid.
	genLagBound = 10 * time.Millisecond
	// saIters is the SA move budget of the SA share.
	saIters = 2000
)

// solveMix is one block of solve-open traffic: how many of every 100
// consecutive /solve requests fall in each (platform, policy) class. PR
// and SA cost 10-35 ms on 16x16 at large n, beyond the latency limit even
// unloaded, so the large mesh gets XY and XYI only; non-mesh platforms get
// TABLE, the one topology-capable policy. Every block holds the whole mix,
// so every phase and ladder rate sees the same traffic whatever the seed.
var solveMix = []struct {
	platform, policy string
	count            int
}{
	{"8x8", "XY", 21}, {"8x8", "XYI", 21}, {"8x8", "PR", 24}, {"8x8", "SA", 4},
	{"16x16", "XY", 5}, {"16x16", "XYI", 5},
	{"torus:8x8", "TABLE", 10}, {"circulant:27:1,3,9", "TABLE", 10},
}

// solveItem is one pre-generated /solve request and the instance it
// encodes.
type solveItem struct {
	body   []byte
	in     solve.Instance
	policy string
	opts   solve.Options
}

// solveOpen is the service under test — the server on loopback and a
// client with at most one connection per core — with its pre-generated
// requests.
type solveOpen struct {
	cfg      config
	srv      *serve.Server
	ts       *httptest.Server
	client   *http.Client
	conns    int
	pool     []solveItem
	hitReq   []byte // the primed /sweep body
	hitBytes []byte // its response stream
}

func (w *solveOpen) close() {
	w.ts.Close()
	w.srv.Close()
	w.client.CloseIdleConnections()
}

// rate scales an offered rate: the short mode offers a quarter, so it
// stays below capacity on a slow (race-detector) build.
func (c config) rate(r float64) float64 {
	if c.Short {
		return r / 4
	}
	return r
}

// solvePoolBlocks is the number of solveMix blocks pre-generated; the
// schedule cycles through them.
func solvePoolBlocks(cfg config) int {
	if cfg.Short {
		return 3
	}
	return 41
}

// parsePlatforms parses every platform spec the workload uses.
func parsePlatforms(tr *tracer, specs ...string) (map[string]topo.Topology, error) {
	out := make(map[string]topo.Topology, len(specs))
	for _, s := range specs {
		sp := tr.begin("topo.parse", familyOf(s), nil)
		t, err := topo.Parse(s)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		out[s] = t
	}
	return out, nil
}

// familyOf names a platform spec's topology family.
func familyOf(spec string) string {
	if family, _, ok := strings.Cut(spec, ":"); ok {
		return family
	}
	return "mesh"
}

// drawers caches one uniform scenario drawer per (platform, n).
type drawers struct {
	tr    *tracer
	cache map[string]scenario.Drawer
}

func (d *drawers) draw(carrier *mesh.Mesh, p scenario.Params, seed int64) (comm.Set, error) {
	if d.cache == nil {
		d.cache = make(map[string]scenario.Drawer)
	}
	key := fmt.Sprintf("%v/%d/%g/%g", carrier, p.N, p.WMin, p.WMax)
	dr, ok := d.cache[key]
	if !ok {
		var err error
		if dr, err = scenario.Bind("uniform", carrier, p); err != nil {
			return nil, err
		}
		d.cache[key] = dr
	}
	sp := d.tr.begin("scenario.draw", "", nil)
	set, err := dr.Draw(seed, nil)
	d.tr.end(sp)
	return set, err
}

// newSolveItem encodes one request and the instance it describes.
func newSolveItem(tp topo.Topology, platform, policy string, set comm.Set, opts solve.Options) (solveItem, error) {
	req := serve.SolveRequest{Policy: policy, Seed: opts.Seed, SAIters: opts.SAIters}
	in := solve.Instance{Model: power.KimHorowitz(), Comms: set}
	if m, ok := tp.(*mesh.Mesh); ok {
		req.Mesh, in.Mesh = platform, m
	} else {
		req.Topology, in.Topo = platform, tp
	}
	for _, c := range set {
		req.Comms = append(req.Comms, serve.SolveComm{
			ID: c.ID, Src: [2]int{c.Src.U, c.Src.V}, Dst: [2]int{c.Dst.U, c.Dst.V}, Rate: c.Rate,
		})
	}
	body, err := json.Marshal(req)
	return solveItem{body: body, in: in, policy: policy, opts: opts}, err
}

// setupSolveOpen draws the request pool and starts the service on it.
func setupSolveOpen(cfg config, tr *tracer) (*solveOpen, error) {
	pool, err := drawSolvePool(cfg, tr)
	if err != nil {
		return nil, err
	}
	return startService(cfg, pool)
}

// drawSolvePool pre-generates the workload's /solve requests, block by
// block in a seeded order. Within a class, n runs through 10..70 along a
// golden-ratio sequence from a seeded offset, so every stretch of the pool
// has close to uniform n.
func drawSolvePool(cfg config, tr *tracer) ([]solveItem, error) {
	var specs []string
	for _, c := range solveMix {
		if !slices.Contains(specs, c.platform) {
			specs = append(specs, c.platform)
		}
	}
	topos, err := parsePlatforms(tr, specs...)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	offset := make([]float64, len(solveMix))
	for i := range offset {
		offset[i] = rng.Float64()
	}
	seen := make([]int, len(solveMix))
	var block []int
	for class, c := range solveMix {
		for i := 0; i < c.count; i++ {
			block = append(block, class)
		}
	}
	dr := &drawers{tr: tr}
	var pool []solveItem
	for b := 0; b < solvePoolBlocks(cfg); b++ {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, class := range block {
			c := solveMix[class]
			_, frac := math.Modf(offset[class] + float64(seen[class])*goldenRatio)
			seen[class]++
			n := 10 + int(frac*61)
			tp := topos[c.platform]
			set, err := dr.draw(tp.Carrier(), scenario.Params{N: n, WMin: 100, WMax: 1500}, rng.Int63())
			if err != nil {
				return nil, err
			}
			var opts solve.Options
			if c.policy == "SA" {
				opts = solve.Options{Seed: 1 + rng.Int63n(1<<30), SAIters: saIters}
			}
			it, err := newSolveItem(tp, c.platform, c.policy, set, opts)
			if err != nil {
				return nil, err
			}
			pool = append(pool, it)
		}
	}
	return pool, nil
}

// goldenRatio is the golden ratio's fractional part: its multiples fall
// evenly over [0, 1), however many are taken.
const goldenRatio = 0.6180339887498949

// startService starts the server on loopback, primes its sweep cache with
// the spec the cache-hit share requests, and warms every shard's pooled
// scratch and every connection.
func startService(cfg config, pool []solveItem) (*solveOpen, error) {
	w := &solveOpen{cfg: cfg, conns: runtime.NumCPU(), pool: pool}
	w.srv = serve.New(serve.Config{})
	w.ts = httptest.NewServer(w.srv.Handler())
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     w.conns,
		MaxIdleConnsPerHost: w.conns,
		DisableCompression:  true,
	}}

	var buf bytes.Buffer
	if err := hitSpec(cfg).EncodeJSON(&buf); err != nil {
		w.close()
		return nil, err
	}
	w.hitReq = buf.Bytes()
	code, miss, err := w.post("/sweep", w.hitReq)
	if err != nil || code != http.StatusOK {
		w.close()
		return nil, fmt.Errorf("priming /sweep: status %d: %v", code, err)
	}
	w.hitBytes = miss

	// Warm: every shard's pooled scratch and every connection.
	warm := min(len(w.pool), 256)
	var wg sync.WaitGroup
	errs := make(chan error, w.conns)
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < warm; i += w.conns {
				if code, _, err := w.post("/solve", w.pool[i].body); err != nil || code != http.StatusOK {
					errs <- fmt.Errorf("warming /solve: status %d: %v", code, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// hitSpec is the sweep the cache-hit share requests.
func hitSpec(cfg config) scenario.Spec {
	return scenario.Spec{
		ID: "solve-open-hit", Source: "uniform",
		Params: scenario.Params{WMin: 100, WMax: 1500},
		Axis:   scenario.AxisN, Points: []float64{10, 20, 30, 40},
		Trials: 10, Seed: cfg.Seed,
	}
}

// post sends one request and reads the whole answer.
func (w *solveOpen) post(path string, body []byte) (int, []byte, error) {
	resp, err := w.client.Post(w.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// arrival is one scheduled request of an open-loop phase.
type arrival struct {
	due  time.Time
	hit  bool
	item int // pool index of a /solve
	// Filled in by the generator and the connection that sent it.
	lag       time.Duration // how late the generator woke for it
	sent      time.Time
	done      time.Time
	status    int
	unsent    bool
	body      []byte
	transport bool // transport error
}

// failed reports whether the request failed, was refused, or could not be
// sent before giveUp. A send that went out late but was answered is not a
// failure: its latency, timed from the due time, already carries the delay.
func (a *arrival) failed() bool {
	return a.unsent || a.transport || a.status != http.StatusOK
}

// latency is the time from the scheduled send to the full answer; a
// failed request has infinite latency.
func (a *arrival) latency() float64 {
	if a.failed() {
		return math.Inf(1)
	}
	return ms(a.done.Sub(a.due))
}

// openLoop offers rate requests per second for dur on at most conns
// connections and returns the arrivals once every sent request has been
// answered. cursor walks the request pool. A traced phase records each
// request as a span from its due time to its answer, with the wait for a
// free connection as its child.
func (w *solveOpen) openLoop(rate float64, dur time.Duration, cursor *int, tr *tracer) []*arrival {
	n := max(1, int(rate*dur.Seconds()))
	arr := make([]*arrival, n)
	start := time.Now().Add(time.Millisecond)
	for i := range arr {
		a := &arrival{due: start.Add(time.Duration(float64(i) / rate * float64(time.Second)))}
		if i%hitEvery == hitEvery-1 {
			a.hit = true
		} else {
			a.item = *cursor % len(w.pool)
			*cursor++
		}
		arr[i] = a
	}
	jobs := make(chan *arrival)
	var wg sync.WaitGroup
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range jobs {
				body := w.hitReq
				path := "/sweep"
				if !a.hit {
					body, path = w.pool[a.item].body, "/solve"
				}
				a.sent = time.Now()
				code, b, err := w.post(path, body)
				a.done = time.Now()
				a.status, a.body, a.transport = code, b, err != nil
				if tr != nil {
					attr := "hit"
					if !a.hit {
						attr = w.pool[a.item].policy
					}
					root := tr.add("serve.request", attr, nil, a.due, a.done)
					tr.add("load.send_delay", "", &root, a.due, a.sent)
				}
			}
		}()
	}
	timer := time.NewTimer(time.Hour)
	for _, a := range arr {
		if d := time.Until(a.due); d > 0 {
			time.Sleep(d)
		}
		a.lag = time.Since(a.due)
		select {
		case jobs <- a:
			continue
		default:
		}
		timer.Reset(time.Until(a.due.Add(giveUp)))
		select {
		case jobs <- a:
		case <-timer.C:
			a.unsent = true
		}
	}
	timer.Stop()
	close(jobs)
	wg.Wait()
	return arr
}

// phaseStats summarizes one open-loop phase.
type phaseStats struct {
	rate              float64
	arrivals          []*arrival
	solveLat, hitLat  []float64 // ms; failures are +Inf
	lag               []float64 // ms
	attempted, failed int
	late              int // answered, but sent later than the latency limit
	growing           bool
}

func summarize(rate float64, arr []*arrival) phaseStats {
	ps := phaseStats{rate: rate, arrivals: arr, attempted: len(arr)}
	for _, a := range arr {
		if a.failed() {
			ps.failed++
		} else if a.sent.Sub(a.due) > latencyLimit {
			ps.late++
		}
		if a.hit {
			ps.hitLat = append(ps.hitLat, a.latency())
		} else {
			ps.solveLat = append(ps.solveLat, a.latency())
		}
		ps.lag = append(ps.lag, ms(a.lag))
	}
	// A growing backlog: the last quarter of the phase was sent much
	// later than the first.
	q := len(arr) / 4
	if q > 0 {
		var first, last []float64
		for i := 0; i < q; i++ {
			first = append(first, ms(sendDelay(arr[i])))
			last = append(last, ms(sendDelay(arr[len(arr)-1-i])))
		}
		ps.growing = percentile(last, 90)-percentile(first, 90) > ms(latencyLimit)/2
	}
	return ps
}

func sendDelay(a *arrival) time.Duration {
	if a.unsent {
		return giveUp
	}
	return a.sent.Sub(a.due)
}

func (ps phaseStats) p99() float64 { return percentile(ps.solveLat, 99) }

func (ps phaseStats) passes() bool { return ps.p99() <= ms(latencyLimit) && !ps.growing }

// maxRate climbs the ladder and returns the highest rate meeting the
// limit, interpolated on log p99 between the last passing and the first
// failing rate, plus every phase run.
func (w *solveOpen) maxRate(ref phaseStats, capacity float64, rung time.Duration, cursor *int) (float64, []phaseStats) {
	var phases []phaseStats
	pass, fail := ref, phaseStats{}
	run := func(rate float64) phaseStats {
		ps := summarize(rate, w.openLoop(rate, rung, cursor, nil))
		phases = append(phases, ps)
		return ps
	}
	for i := 0; i < ladderRungs; i++ {
		ps := run(capacity * (ladderStart + float64(i)*ladderStep))
		if !ps.passes() {
			fail = ps
			break
		}
		pass = ps
	}
	if fail.attempted == 0 {
		return pass.rate, phases // the ladder topped out
	}
	for i := 0; i < ladderSplit; i++ {
		ps := run((pass.rate + fail.rate) / 2)
		if ps.passes() {
			pass = ps
		} else {
			fail = ps
		}
	}
	lim := ms(latencyLimit)
	pa := max(pass.p99(), lim/100)
	pb := min(fail.p99(), 50*lim)
	frac := 0.0
	if pb > pa {
		frac = math.Log(lim/pa) / math.Log(pb/pa)
	}
	frac = math.Max(0, math.Min(1, frac))
	return pass.rate + frac*(fail.rate-pass.rate), phases
}

// saturate runs satBursts closed-loop bursts, each dur/satBursts long,
// and returns the median burst throughput with every arrival.
func (w *solveOpen) saturate(dur time.Duration, cursor *int) (float64, []*arrival) {
	var rates []float64
	var all []*arrival
	for i := 0; i < satBursts; i++ {
		rate, arr := w.burst(dur/satBursts, cursor)
		rates = append(rates, rate)
		all = append(all, arr...)
	}
	return median(rates), all
}

// burst sends requests back to back on every connection for dur — a
// closed loop, so the service runs flat out — and returns the requests
// answered successfully within dur per second, with the arrivals.
func (w *solveOpen) burst(dur time.Duration, cursor *int) (float64, []*arrival) {
	start := time.Now()
	end := start.Add(dur)
	base := *cursor
	var next atomic.Int64
	per := make([][]*arrival, w.conns)
	var wg sync.WaitGroup
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(next.Add(1) - 1)
				a := &arrival{hit: i%hitEvery == hitEvery-1, item: (base + i) % len(w.pool)}
				body, path := w.hitReq, "/sweep"
				if !a.hit {
					body, path = w.pool[a.item].body, "/solve"
				}
				a.due = time.Now()
				a.sent = a.due
				code, b, err := w.post(path, body)
				a.done = time.Now()
				a.status, a.body, a.transport = code, b, err != nil
				per[c] = append(per[c], a)
			}
		}(c)
	}
	wg.Wait()
	*cursor += int(next.Load())
	var all []*arrival
	done := 0
	for _, arr := range per {
		all = append(all, arr...)
		for _, a := range arr {
			if !a.failed() && a.done.Before(end) {
				done++
			}
		}
	}
	return float64(done) / dur.Seconds(), all
}

// expected is the direct in-process answer to one pool request.
type expected struct {
	policy   string
	feasible bool
	total    float64
	err      bool
}

// solveDirect answers every used pool request in-process, spread over the
// cores, each worker with its own pooled workspace like a server shard.
func (w *solveOpen) solveDirect(used []bool) []expected {
	out := make([]expected, len(w.pool))
	var wg sync.WaitGroup
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ws := route.NewWorkspace()
			trackers := make(map[string]*route.LoadTracker)
			for i := c; i < len(w.pool); i += w.conns {
				if used[i] {
					out[i] = directSolve(w.pool[i], ws, trackers)
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}

func directSolve(it solveItem, ws *route.Workspace, trackers map[string]*route.LoadTracker) expected {
	s, err := solve.Lookup(it.policy)
	if err != nil {
		return expected{err: true}
	}
	opts := it.opts
	opts.Workspace = ws
	r, err := s.Route(it.in, opts)
	if err != nil {
		return expected{policy: s.Name(), err: true}
	}
	tp := it.in.Topology()
	t, ok := trackers[tp.Spec()]
	if !ok {
		t = route.NewLoadTrackerTopo(tp)
		trackers[tp.Spec()] = t
	}
	t.SetRouting(r)
	bd, feasible := t.Evaluate(it.in.Model)
	return expected{policy: s.Name(), feasible: feasible, total: bd.Total()}
}

// check compares every answered request with its direct solve or, for a
// cache hit, with the primed stream.
func (w *solveOpen) check(rep *report, phases ...[]*arrival) {
	used := make([]bool, len(w.pool))
	for _, arr := range phases {
		for _, a := range arr {
			if !a.hit && !a.failed() {
				used[a.item] = true
			}
		}
	}
	want := w.solveDirect(used)
	bad := 0
	for _, arr := range phases {
		for _, a := range arr {
			if a.failed() {
				continue
			}
			if a.hit {
				if !bytes.Equal(a.body, w.hitBytes) {
					bad++
				}
				continue
			}
			var got serve.SolveResponse
			e := want[a.item]
			if err := json.Unmarshal(a.body, &got); err != nil ||
				got.Policy != e.policy || (got.Error != "") != e.err ||
				got.Feasible != e.feasible || math.Float64bits(got.TotalMW) != math.Float64bits(e.total) {
				bad++
			}
		}
	}
	if bad > 0 {
		rep.problem("solve-open: %d answers differ from the direct in-process solve or the primed sweep stream", bad)
	}
}

// runSolveOpen is the solve-open workload.
func runSolveOpen(cfg config) (*report, error) {
	rep := &report{Detail: make(map[string]float64)}
	if cfg.Trace {
		return traceSolveOpen(cfg, rep)
	}
	w, setup, err := repeatSetup(func() (*solveOpen, error) { return setupSolveOpen(cfg, nil) }, (*solveOpen).close)
	if err != nil {
		return nil, err
	}
	defer w.close()
	rep.Setup = setup

	total := cfg.measured()
	refDur, satDur, rung := total/2, total/5, total/25
	cursor := 0
	refArr := w.openLoop(cfg.rate(refRate), refDur, &cursor, nil)
	ref := summarize(cfg.rate(refRate), refArr)
	capacity, satArr := w.saturate(satDur, &cursor)
	maxRPS, ladder := w.maxRate(ref, capacity, rung, &cursor)

	// The ladder searches for the rate where requests start to fail, so
	// its failures are its result, reported apart from attempted/failed.
	sat := summarize(capacity, satArr)
	rep.Attempted, rep.Failed = ref.attempted+sat.attempted, ref.failed+sat.failed
	checked := [][]*arrival{refArr, satArr}
	ladderAttempted, ladderFailed := 0, 0
	for _, ps := range ladder {
		ladderAttempted += ps.attempted
		ladderFailed += ps.failed
		checked = append(checked, ps.arrivals)
	}
	w.check(rep, checked...)
	if lag := percentile(ref.lag, 99); lag > ms(genLagBound) {
		rep.problem("solve-open: generator ran %.1f ms late at p99 (bound %v); the run is invalid", lag, genLagBound)
	}

	rep.E2E = map[string]metric{
		"ops_per_s": {capacity, "1/s"},
		"op_p50_ms": {percentile(ref.solveLat, 50), "ms"},
	}
	d := rep.Detail
	d["solve_p50_ms"] = percentile(ref.solveLat, 50)
	d["solve_p90_ms"] = percentile(ref.solveLat, 90)
	d["solve_p99_ms"] = percentile(ref.solveLat, 99)
	d["solve_samples"] = float64(len(ref.solveLat))
	d["solve_max_rps"], d["saturation_rps"] = maxRPS, capacity
	d["sweep_hit_p50_ms"] = percentile(ref.hitLat, 50)
	d["sweep_hit_p99_ms"] = percentile(ref.hitLat, 99)
	d["sweep_hit_samples"] = float64(len(ref.hitLat))
	d["gen_late_ms.p99"] = percentile(ref.lag, 99)
	d["late_sends"] = float64(ref.late)
	d["ref_rate"], d["latency_limit_ms"] = cfg.rate(refRate), ms(latencyLimit)
	d["ladder_attempted"], d["ladder_failures"] = float64(ladderAttempted), float64(ladderFailed)
	d["fail_ratio"] = float64(rep.Failed) / float64(rep.Attempted)
	for _, ps := range ladder {
		d[fmt.Sprintf("ladder.%.0f.p99_ms", ps.rate)] = ps.p99()
	}
	return rep, nil
}
