// Solver-level benchmark harness: per-policy ns/op and allocs/op on the
// reference workload, the ≥10× workspace-reuse allocation guard of the
// dense-workspace refactor, and the BENCH_solvers.json emitter that lets
// CI track the per-policy perf trajectory across commits.
package repro_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/heur"
	"repro/internal/mesh"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/workload"
)

// solverBenchNames is the policy line-up tracked by the solver benchmarks:
// the paper's six constructive heuristics, the SA refiner (whose cost the
// compiled-objective work tracks), plus the multi-path policies cheap
// enough to benchmark per-commit.
var solverBenchNames = []string{"XY", "SG", "IG", "TB", "XYI", "PR", "SA", "2MP", "4MP"}

// heuristicLineUp is the subset covered by the allocation-ratio guard.
var heuristicLineUp = []string{"XY", "SG", "IG", "TB", "XYI", "PR"}

// solverBenchInstance is the reference workload of the solver benchmarks:
// the congested Figure 7(a) midpoint (n=70, small communications).
func solverBenchInstance() solve.Instance {
	m := mesh.MustNew(8, 8)
	return solve.Instance{
		Mesh:  m,
		Model: power.KimHorowitz(),
		Comms: workload.New(m, 1).Uniform(70, 100, 1500),
	}
}

// optBenchInstance is the committed OPT benchmark instance: a 4x4 mesh
// with 7 communications, the gap-report scale where the exact search is
// routine. The heuristic reference workload (n=70 on 8x8) is
// exponentially out of reach for any exact solver, so OPT is tracked on
// its own instance; benchguard still normalizes by XY measured on the
// same machine, which is all the cross-machine comparison needs.
func optBenchInstance() solve.Instance {
	m := mesh.MustNew(4, 4)
	return solve.Instance{
		Mesh:  m,
		Model: power.KimHorowitz(),
		Comms: workload.New(m, 7).Uniform(7, 100, 900),
	}
}

// optBenchOptions pins the benchmarked OPT configuration: serial search
// (parallel ns/op would track the machine's core count, not the code) on
// a reused workspace.
func optBenchOptions(ws *route.Workspace) solve.Options {
	return solve.Options{Workspace: ws, ExactWorkers: 1}
}

// BenchmarkSolvers measures every tracked policy with a reused workspace —
// the configuration the experiment engine runs — one sub-benchmark per
// policy, allocations reported.
func BenchmarkSolvers(b *testing.B) {
	in := solverBenchInstance()
	for _, name := range solverBenchNames {
		s, err := solve.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			ws := route.NewWorkspace()
			opts := solve.Options{Workspace: ws}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Route(in, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	opt, err := solve.Lookup("OPT")
	if err != nil {
		b.Fatal(err)
	}
	optIn := optBenchInstance()
	b.Run("OPT", func(b *testing.B) {
		opts := optBenchOptions(route.NewWorkspace())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := opt.Route(optIn, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// growthBenchNames are the policies of the growth curves: the two
// rescan heuristics, the annealer seeded from them, and the
// topology-generic table router.
var growthBenchNames = []string{"XYI", "PR", "SA", "TABLE"}

// growthBenchPoints are the (mesh side, n) points of the growth curves:
// n ∈ {10, 35, 70, 140} on 8x8, and mesh side ∈ {4, 8, 16} at n = 35
// (8x8 at n = 35 is shared by both curves).
var growthBenchPoints = []struct{ side, n int }{
	{8, 10}, {8, 35}, {8, 70}, {8, 140},
	{4, 35}, {16, 35},
}

// BenchmarkSolverGrowth measures how the tracked policies scale with the
// number of communications and with the platform size: ns/op and
// allocs/op per (policy, mesh, n) under a reused workspace, on uniform
// instances drawn like the reference workload's. It is a report, not a
// guard: no BENCH_*.json baseline or benchguard line reads it.
func BenchmarkSolverGrowth(b *testing.B) {
	for _, name := range growthBenchNames {
		s, err := solve.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range growthBenchPoints {
			m := mesh.MustNew(pt.side, pt.side)
			in := solve.Instance{
				Mesh:  m,
				Model: power.KimHorowitz(),
				Comms: workload.New(m, 1).Uniform(pt.n, 100, 1500),
			}
			b.Run(fmt.Sprintf("%s/%dx%d/n=%d", name, pt.side, pt.side, pt.n), func(b *testing.B) {
				opts := solve.Options{Workspace: route.NewWorkspace()}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := s.Route(in, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// maxOptAllocsPerSolve bounds OPT's per-solve allocations under a warmed
// workspace: the incumbent-seeded branch-and-bound runs entirely on
// pooled arenas, so a reused serial solve costs only validation, the
// seeding heuristic's plumbing, and the routing assembly.
const maxOptAllocsPerSolve = 24

// TestOptWorkspaceAllocs is the exact solver's allocation guard: a warmed
// exact.Workspace solve of the committed OPT bench instance must stay
// within maxOptAllocsPerSolve allocations.
func TestOptWorkspaceAllocs(t *testing.T) {
	s, err := solve.Lookup("OPT")
	if err != nil {
		t.Fatal(err)
	}
	in := optBenchInstance()
	opts := optBenchOptions(route.NewWorkspace())
	if _, err := s.Route(in, opts); err != nil { // warm the workspace
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.Route(in, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxOptAllocsPerSolve {
		t.Fatalf("OPT allocates %.0f times per warmed-workspace solve, guard %d",
			allocs, maxOptAllocsPerSolve)
	}
}

// minWorkspaceAllocRatio is the acceptance bar of the dense-workspace
// refactor: across the heuristic line-up, workspace reuse must cut
// per-solve allocations by at least this factor versus allocate-fresh
// calls (measured ~25–570× per policy; 10× leaves headroom for runtime
// drift without letting a pooling regression slip through).
const minWorkspaceAllocRatio = 10

// maxReusedAllocsPerSolve bounds the absolute per-solve allocation count
// under reuse: a warmed workspace solve costs only instance validation and
// interface plumbing (~3 allocs today).
const maxReusedAllocsPerSolve = 32

// BenchmarkSolverTrialAllocs is the workspace-reuse allocation guard: for
// each heuristic of the line-up it measures allocs per solve with a fresh
// workspace per call versus a reused one, reports both, and fails if the
// aggregate reduction falls under minWorkspaceAllocRatio or any policy
// allocates more than maxReusedAllocsPerSolve when warmed.
func BenchmarkSolverTrialAllocs(b *testing.B) {
	in := solverBenchInstance()
	b.ReportAllocs()
	totalFresh, totalReused := 0.0, 0.0
	for _, name := range heuristicLineUp {
		s, err := solve.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		fresh := testing.AllocsPerRun(3, func() {
			if _, err := s.Route(in, solve.Options{}); err != nil {
				b.Fatal(err)
			}
		})
		ws := route.NewWorkspace()
		opts := solve.Options{Workspace: ws}
		if _, err := s.Route(in, opts); err != nil { // warm the workspace
			b.Fatal(err)
		}
		reused := testing.AllocsPerRun(3, func() {
			if _, err := s.Route(in, opts); err != nil {
				b.Fatal(err)
			}
		})
		b.ReportMetric(reused, "allocs/solve-"+name)
		if reused > maxReusedAllocsPerSolve {
			b.Fatalf("%s allocates %.0f times per warmed-workspace solve, guard %d",
				name, reused, maxReusedAllocsPerSolve)
		}
		totalFresh += fresh
		totalReused += reused
	}
	ratio := totalFresh / totalReused
	b.ReportMetric(ratio, "freshOverReused")
	if ratio < minWorkspaceAllocRatio {
		b.Fatalf("workspace reuse cuts allocations only %.1f× across the heuristic line-up, guard %d×",
			ratio, minWorkspaceAllocRatio)
	}
	for i := 0; i < b.N; i++ { // keep the harness happy; the guard above is the point
	}
}

// nocEnergyBenchConfig is the committed NoCSimEnergy configuration: the
// E15 replay with explicit per-component energy coefficients, the run
// whose Stats.Energy breakdown the energy benchmarks track.
func nocEnergyBenchConfig() noc.Config {
	return noc.Config{Horizon: 1000, Warmup: 200, RouterPJPerBit: 0.5, BufferPJPerBit: 0.3}
}

// maxNoCSimEnergyAllocs bounds a warmed pooled run with per-component
// energy accounting. The engine's own budget is maxSimAllocsPerRun = 24
// (internal/noc/sim_bench_test.go, measured ~10); the energy counters
// may add at most 2 allocations — in practice exactly 1, the single
// slab backing the three Energy slices — so 24 + 2 is the ceiling.
const maxNoCSimEnergyAllocs = 26

// BenchmarkNoCSimEnergy measures the pooled simulator with energy
// accounting on the E15 reference routing and guards the accounting's
// allocation cost: a warmed run must stay within maxNoCSimEnergyAllocs,
// and the conservation identity must hold on every iteration.
func BenchmarkNoCSimEnergy(b *testing.B) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	set := workload.New(m, 8).Uniform(15, 100, 1200)
	res, err := heur.Solve(heur.PR{}, heur.Instance{Mesh: m, Model: model, Comms: set})
	if err != nil || !res.Feasible {
		b.Fatalf("energy bench setup: err=%v feasible=%v", err, res.Feasible)
	}
	ws := noc.NewWorkspace()
	cfg := nocEnergyBenchConfig()
	run := func() *noc.Stats {
		sim, err := ws.Simulator(res.Routing, model, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return sim.Run()
	}
	st := run() // warm the pooled buffers
	e := st.Energy
	if got := e.RouterTotalNJ + e.LinkTotalNJ + e.BufferTotalNJ; got != e.TotalNJ {
		b.Fatalf("energy conservation broken: %g != %g", got, e.TotalNJ)
	}
	if e.TotalNJ <= 0 {
		b.Fatal("zero total energy on the reference replay")
	}
	perRun := testing.AllocsPerRun(3, func() { run() })
	b.ReportMetric(perRun, "allocs/run")
	if perRun > maxNoCSimEnergyAllocs {
		b.Fatalf("%.0f allocations per warmed pooled energy run, guard %d — the counters are allocating on the hot path",
			perRun, maxNoCSimEnergyAllocs)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// solverBenchRow is one policy's entry in BENCH_solvers.json.
type solverBenchRow struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// optBenchRow measures the exact branch-and-bound on its committed bench
// instance (serial, reused workspace) — the BENCH_solvers.json entry that
// tracks the incumbent-seeded search's speed per commit.
func optBenchRow(t *testing.T) solverBenchRow {
	t.Helper()
	s, err := solve.Lookup("OPT")
	if err != nil {
		t.Fatal(err)
	}
	in := optBenchInstance()
	opts := optBenchOptions(route.NewWorkspace())
	if _, err := s.Route(in, opts); err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Route(in, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	return solverBenchRow{
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
}

// nocSimBenchRow measures the pooled NoC simulator on the E15 reference
// instance under the given configuration — the BENCH_solvers.json
// entries cmd/benchguard tracks (one per switching mode, one for the
// explicit energy-accounting configuration).
func nocSimBenchRow(t *testing.T, cfg noc.Config) solverBenchRow {
	t.Helper()
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	set := workload.New(m, 8).Uniform(15, 100, 1200)
	res, err := heur.Solve(heur.PR{}, heur.Instance{Mesh: m, Model: model, Comms: set})
	if err != nil || !res.Feasible {
		t.Fatalf("NoC bench setup: err=%v feasible=%v", err, res.Feasible)
	}
	ws := noc.NewWorkspace()
	bres := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sim, err := ws.Simulator(res.Routing, model, cfg)
			if err != nil {
				b.Fatal(err)
			}
			sim.Run()
		}
	})
	return solverBenchRow{
		NsPerOp:     float64(bres.NsPerOp()),
		AllocsPerOp: bres.AllocsPerOp(),
		BytesPerOp:  bres.AllocedBytesPerOp(),
	}
}

// TestEmitSolverBenchJSON writes BENCH_solvers.json (per-policy ns/op and
// allocs/op under workspace reuse, plus the pooled NoC simulator in both
// switching modes) when BENCH_SOLVERS_JSON names the output path — the CI
// hook that tracks the perf trajectory. Without the variable the test is
// a no-op.
func TestEmitSolverBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_SOLVERS_JSON")
	if path == "" {
		t.Skip("BENCH_SOLVERS_JSON not set")
	}
	in := solverBenchInstance()
	rows := make(map[string]solverBenchRow, len(solverBenchNames)+2)
	for _, name := range solverBenchNames {
		s, err := solve.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		ws := route.NewWorkspace()
		opts := solve.Options{Workspace: ws}
		if _, err := s.Route(in, opts); err != nil {
			t.Fatal(err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Route(in, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		rows[name] = solverBenchRow{
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
	}
	rows["OPT"] = optBenchRow(t)
	rows["NoCSimSF"] = nocSimBenchRow(t, noc.Config{Horizon: 1000, Warmup: 200, Switching: noc.StoreAndForward})
	rows["NoCSimCT"] = nocSimBenchRow(t, noc.Config{Horizon: 1000, Warmup: 200, Switching: noc.CutThrough})
	rows["NoCSimEnergy"] = nocSimBenchRow(t, nocEnergyBenchConfig())
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s (%d policies)\n", path, len(rows))
}
