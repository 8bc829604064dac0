package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/noc"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func shortConfig(trace bool) config {
	return config{Seed: 3, Seconds: 0.3, Trace: trace, Short: true}
}

// TestWorkloadsEmitEveryMetric runs a short mode of every workload,
// untraced and traced, and checks that each run is correct and emits
// exactly the metrics BENCHMARK.json names, each with its unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(f.Workloads), len(workloads))
	}
	for _, wl := range f.Workloads {
		run, ok := workloads[wl.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", wl.Name)
		}
		for _, trace := range []bool{false, true} {
			cfg := shortConfig(trace)
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if raceEnabled {
				rep.Problems = dropGeneratorLag(rep.Problems)
			}
			rec := finish(wl.Name, cfg, rep)
			if !rec.Result.Correct || rec.Result.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d problems=%v",
					wl.Name, trace, rec.Result.Correct, rec.Result.Attempted, rec.Problems)
			}
			want := map[string]string{}
			if trace {
				for _, m := range f.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range f.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			got := rec.Result.Metrics
			for name, unit := range want {
				m, ok := got[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, trace, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s is %v", wl.Name, trace, name, m.Value)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", wl.Name, trace, name)
				}
			}
			if !trace {
				for _, name := range []string{"setup_s", "ops_per_s", "op_p50_ms"} {
					if got[name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, name, got[name].Value)
					}
				}
			}
			if trace {
				checkSpans(t, wl.Name, rep.Trace.snapshot())
			}
		}
	}
}

// dropGeneratorLag removes the generator-lag verdict, which a race build's
// slowdown triggers; every output check still applies.
func dropGeneratorLag(problems []string) []string {
	var out []string
	for _, p := range problems {
		if !strings.Contains(p, "generator ran") {
			out = append(out, p)
		}
	}
	return out
}

// checkSpans verifies that the traced run's spans nest: every child lies
// inside its parent and shares its request, so every self time is >= 0.
func checkSpans(t *testing.T, workload string, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatalf("%s: traced run recorded no spans", workload)
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	children := 0
	for _, s := range spans {
		if self[s.ID] < 0 {
			t.Errorf("%s: span %d (%s) self time %v", workload, s.ID, s.Name, self[s.ID])
		}
		if s.Parent != 0 {
			children++
		}
	}
	if children == 0 {
		t.Errorf("%s: no span has a parent; nesting is untested", workload)
	}
}

func TestSelfTimesRejectsBadNesting(t *testing.T) {
	parent := span{ID: 1, Req: 1, Name: "p", Start: 0, End: 100}
	inside := span{ID: 2, Parent: 1, Req: 1, Name: "c", Start: 10, End: 40}
	if self, err := selfTimes([]span{parent, inside}); err != nil || self[1] != 70 || self[2] != 30 {
		t.Fatalf("self times %v, err %v; want 70 and 30", self, err)
	}
	outside := span{ID: 3, Parent: 1, Req: 1, Name: "c", Start: 90, End: 120}
	if _, err := selfTimes([]span{parent, outside}); err == nil {
		t.Error("a child ending after its parent was accepted")
	}
	otherReq := span{ID: 4, Parent: 1, Req: 9, Name: "c", Start: 10, End: 20}
	if _, err := selfTimes([]span{parent, otherReq}); err == nil {
		t.Error("a child of another request was accepted")
	}
}

// TestSolveCheckCatchesWrongAnswer corrupts one /solve answer and expects
// the output check to fail the run.
func TestSolveCheckCatchesWrongAnswer(t *testing.T) {
	w, err := setupSolveOpen(shortConfig(false), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	cursor := 0
	arr := w.openLoop(200, 100e6, &cursor, nil)
	var clean report
	w.check(&clean, arr)
	if len(clean.Problems) != 0 {
		t.Fatalf("untouched answers fail the check: %v", clean.Problems)
	}
	for _, a := range arr {
		if !a.hit && !a.failed() {
			a.body = []byte(strings.Replace(string(a.body), `"total_mw":`, `"total_mw":1`, 1))
			break
		}
	}
	var bad report
	w.check(&bad, arr)
	if len(bad.Problems) == 0 {
		t.Fatal("a corrupted /solve answer passed the check")
	}
}

func TestSweepCheckCatchesDigestMismatch(t *testing.T) {
	cfg := shortConfig(false)
	w, err := setupSweepFig(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.round(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	var good report
	if err := w.checkRounds(cfg, &good, []roundResult{r}); err != nil || len(good.Problems) != 0 {
		t.Fatalf("parallel round differs from the serial reference: %v %v", err, good.Problems)
	}
	r.digest = "0"
	var bad report
	if err := w.checkRounds(cfg, &bad, []roundResult{r}); err != nil || len(bad.Problems) == 0 {
		t.Fatal("a wrong stream digest passed the check")
	}
}

// TestPinnedSweepDigest holds the default seed's pinned digest to a serial
// round of the full-size specs.
func TestPinnedSweepDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full-size serial round")
	}
	w, err := setupSweepFig(config{Seed: pinnedSeed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.round(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.digest != pinnedSweepDigest {
		t.Fatalf("serial round digest %s, pinned %s", r.digest, pinnedSweepDigest)
	}
}

func TestNocCheckCatchesBrokenIdentity(t *testing.T) {
	st := &noc.Stats{Injected: 10, Delivered: 7, Stalled: 1, InFlight: 1}
	if bad := checkStats(&replay{}, st); len(bad) == 0 {
		t.Error("Injected != Delivered + Stalled + InFlight passed the check")
	}
	st = &noc.Stats{Injected: 10, Delivered: 8, Stalled: 1, InFlight: 1}
	st.Energy = noc.Energy{RouterTotalNJ: 1, LinkTotalNJ: 2, BufferTotalNJ: 3, TotalNJ: 7}
	if bad := checkStats(&replay{}, st); len(bad) == 0 {
		t.Error("an energy total that is not the sum of its components passed the check")
	}
}

func TestCompareRefusesDifferentNproc(t *testing.T) {
	a := record{Workload: "sweep-fig", Env: environment{NumCPU: 2}}
	b := a
	if err := comparable(a, b); err != nil {
		t.Fatalf("identical environments refused: %v", err)
	}
	b.Env.NumCPU = 1
	if err := comparable(a, b); err == nil {
		t.Fatal("results recorded at different nproc were compared")
	}
}
