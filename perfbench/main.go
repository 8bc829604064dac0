// Command perfbench is the repository's end-to-end benchmark. It drives
// the three public entry points in-process — the routing service over
// loopback HTTP, the offline sweep engine, and the NoC simulator — on a
// named workload generated from a seed, checks every output, and prints
// the result as one JSON object on the last line of standard output.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload solve-open --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload sweep-fig --seed 7 --seconds 20 --trace 1
//	bash perfbench/run.sh compare .bench_out/a.json .bench_out/b.json
//
// --trace 0 measures the end-to-end metrics untraced. --trace 1 is the
// separate traced run: it records spans around every call the benchmark
// makes into a layer and reports the per-layer metrics, the spans (written
// to .bench_out/) and the tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// gitCommit is stamped by run.sh when the checkout is a git repository.
var gitCommit = "unknown"

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// config is one benchmark invocation.
type config struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Short shrinks every input so a workload runs in about a second;
	// the benchmark's own tests use it.
	Short bool
}

// measured returns the measured-phase duration.
func (c config) measured() time.Duration {
	return time.Duration(c.Seconds * float64(time.Second))
}

// report is what a workload run hands back to main.
type report struct {
	Attempted int
	Failed    int
	// Problems lists failed output checks; any entry makes the run
	// incorrect.
	Problems []string
	// Setup holds the duration of each set-up repetition, in seconds.
	Setup []float64
	// E2E holds the workload's end-to-end metrics other than setup_s and
	// peak_rss_mb (untraced runs only).
	E2E map[string]metric
	// Layers holds the per-layer metrics (traced runs only).
	Layers map[string]metric
	// Detail holds named figures that are not benchmark metrics: the
	// workload-specific numbers with their sample counts.
	Detail map[string]float64
	// Trace is the traced run's span recorder.
	Trace *tracer
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"solve-open": runSolveOpen,
	"sweep-fig":  runSweepFig,
	"noc-replay": runNocReplay,
}

// result is the JSON object printed on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full result written to .bench_out/: the printed result
// plus the environment, the workload detail and any failed check.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Env      environment        `json:"env"`
	Result   result             `json:"result"`
	Detail   map[string]float64 `json:"detail"`
	Problems []string           `json:"problems,omitempty"`
}

// environment is recorded with every result; compare refuses results
// measured at different nproc.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
}

func currentEnv() environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GitCommit:  gitCommit,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload: solve-open, sweep-fig or noc-replay")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 20, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		outDir  = flag.String("out", ".bench_out", "directory for the result record and spans")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec := finish(*name, cfg, rep)
	if err := writeRecord(*outDir, rec, rep.Trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	detail, _ := json.Marshal(struct {
		Env    environment        `json:"env"`
		Detail map[string]float64 `json:"detail"`
	}{rec.Env, rec.Detail})
	fmt.Println(string(detail))
	line, _ := json.Marshal(rec.Result)
	fmt.Println(string(line))
	if !rec.Result.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// finish assembles the record: the end-to-end metrics for an untraced
// run, the per-layer metrics for a traced one.
func finish(name string, cfg config, rep *report) record {
	metrics := make(map[string]metric)
	if cfg.Trace {
		for k, v := range rep.Layers {
			metrics[k] = v
		}
	} else {
		metrics["setup_s"] = metric{median(rep.Setup), "s"}
		metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		for k, v := range rep.E2E {
			metrics[k] = v
		}
	}
	if rep.Detail == nil {
		rep.Detail = make(map[string]float64)
	}
	// JSON has no infinity: a percentile that failed requests pushed to
	// +Inf is written as -1.
	for k, v := range rep.Detail {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			rep.Detail[k] = -1
		}
	}
	for k, v := range metrics {
		if math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
			metrics[k] = metric{-1, v.Unit}
		}
	}
	return record{
		Workload: name,
		Seed:     cfg.Seed,
		Seconds:  cfg.Seconds,
		Trace:    cfg.Trace,
		Env:      currentEnv(),
		Result: result{
			Correct:   len(rep.Problems) == 0,
			Attempted: rep.Attempted,
			Failed:    rep.Failed,
			Metrics:   metrics,
		},
		Detail:   rep.Detail,
		Problems: rep.Problems,
	}
}

// writeRecord stores the record, and for a traced run the spans, under dir.
func writeRecord(dir string, rec record, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", rec.Workload, rec.Seed, map[bool]int{false: 0, true: 1}[rec.Trace])
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	return tr.writeFile(filepath.Join(dir, base+".spans.jsonl"))
}

// compareMain prints the relative change of every metric between two
// result records. It refuses records measured at different nproc, for
// different workloads, or in different modes.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	if err := comparable(recs[0], recs[1]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var names []string
	for k := range recs[0].Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		a, b := recs[0].Result.Metrics[k], recs[1].Result.Metrics[k]
		change := "n/a"
		if a.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(b.Value-a.Value)/a.Value)
		}
		fmt.Printf("%-40s %14.4f %14.4f %-6s %s\n", k, a.Value, b.Value, a.Unit, change)
	}
	return 0
}

// comparable reports why two records must not be compared, if they must not.
func comparable(a, b record) error {
	switch {
	case a.Env.NumCPU != b.Env.NumCPU:
		return fmt.Errorf("recorded at nproc %d and %d; results from different core counts are not comparable",
			a.Env.NumCPU, b.Env.NumCPU)
	case a.Workload != b.Workload:
		return fmt.Errorf("different workloads %q and %q", a.Workload, b.Workload)
	case a.Trace != b.Trace:
		return errors.New("one record is traced and the other is not")
	}
	return nil
}
