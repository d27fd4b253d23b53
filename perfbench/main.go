// Command perfbench is the repository's benchmark. It runs one
// workload in a closed loop through the program's public front doors —
// repro.Run for the library workloads, POST /v1/run on a coflowd
// process it starts itself for the service workload — checks every
// output it times, and prints the end-to-end metrics (--trace 0) or
// the per-layer metrics of a separate traced run (--trace 1).
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload offline-stretch --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {…}}.
// An incorrect output prints "correct": false and exits 1; a failed
// op (a typed error from the program) is counted, not fatal.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	repro "repro"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"runs_per_s", "1/s"},
	{"success_rate", "ratio"},
	{"weighted_cct_ratio", "ratio"},
	{"avg_cct_slots", "slots"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a --trace 1 run reports. A layer the
// workload never reaches reports 0.
var perLayer = []metricDef{
	{"spec.normalize_ms", "ms"},
	{"topo.new_ms", "ms"},
	{"workload.generate_ms", "ms"},
	{"workload.flows", "count"},
	{"model.build_ms", "ms"},
	{"model.rows", "count"},
	{"model.nonzeros", "count"},
	{"simplex.solve_ms", "ms"},
	{"simplex.pivots", "count"},
	{"simplex.us_per_pivot", "us"},
	{"simplex.warm_start_ratio", "ratio"},
	{"core.heuristic_ms", "ms"},
	{"core.trials_ms", "ms"},
	{"core.grid_retries", "count"},
	{"engine.replans", "count"},
	{"engine.replan_ms", "ms"},
	{"sim.simulate_ms", "ms"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"validate.ms", "ms"},
	{"spec.encode_ms", "ms"},
	{"coflowd.hit_ratio", "ratio"},
	{"coflowd.hit_latency_p50_ms", "ms"},
	{"coflowd.miss_latency_p50_ms", "ms"},
	{"coflowd.semaphore_wait_ms", "ms"},
	{"coflowd.server_ms", "ms"},
	{"run.alloc_bytes", "bytes"},
	{"run.allocs", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// config is one benchmark run.
type config struct {
	w       workload
	z       sizes
	seed    int64
	window  time.Duration
	trace   bool
	coflowd string // coflowd binary (service workload)
	out     string // directory for span dumps
}

// procs is the GOMAXPROCS of the benchmark, of its set-up children and
// of the coflowd it starts. The program's work runs on one core and
// leaves the other to the rest of the machine: on a shared host with
// two cores, a second busy thread measures the host's scheduler rather
// than the program. A spec's workers default to GOMAXPROCS, so the
// Stretch trials run on a one-worker pool.
const procs = 1

// setupRuns is how many times a run sets the program up; setup_s is
// their median.
const setupRuns = 15

// measured is one metric value with the number of samples behind it.
type measured struct {
	value   float64
	samples int
}

// result is what one run measured.
type result struct {
	attempted, failed int
	errors            []string // the first few failed-op messages
	metrics           map[string]measured
	digest            string
	spans             string // where the span dump went (traced runs)
	defects           map[string]string
	wall              map[string]float64 // raw wall-clock figures beside the scaled ones
}

// fail counts a failed op and keeps the first few errors, with the
// spec that reproduces each.
func (r *result) fail(op int, s repro.Spec, err error) {
	r.failed++
	if len(r.errors) < 5 {
		doc, _ := json.Marshal(s)
		r.errors = append(r.errors, fmt.Sprintf("op %d: %v\n    spec: %s", op, err, doc))
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: offline-stretch, online-sim, online-replan or service")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds = flag.Float64("seconds", 20, "measurement window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
		coflowd = flag.String("coflowd", ".bench_build/bin/coflowd", "coflowd binary the service workload launches")
		out     = flag.String("out", ".bench_build", "directory for span dumps")
	)
	runtime.GOMAXPROCS(procs)
	setupChild()
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx := context.Background()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	c := config{
		w:       w,
		z:       defaultSizes,
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		coflowd: *coflowd,
		out:     *out,
	}
	r, err := runWorkload(ctx, c)
	if err == nil {
		r.defects = probeDefects(ctx)
	}
	os.Exit(report(os.Stdout, c, r, err))
}

// runWorkload runs c's workload and returns what it measured.
func runWorkload(ctx context.Context, c config) (*result, error) {
	if c.w.service {
		return runService(ctx, c)
	}
	return runLibrary(ctx, c)
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints a human-readable table, one provenance line and the
// final JSON line, and returns the exit code.
func report(f *os.File, c config, r *result, err error) int {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", c.w.name, err)
		if !errors.Is(err, errIncorrect) {
			return 1
		}
		b, _ := json.Marshal(finalLine{Metrics: map[string]metricJSON{}})
		fmt.Fprintln(f, string(b))
		return 1
	}
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	line := finalLine{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	fmt.Fprintf(f, "perfbench %s seed=%d trace=%v ops=%d failed=%d error_rate=%.4g digest=%s\n",
		c.w.name, c.seed, c.trace, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)), r.digest)
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", c.w.name, d.name)
			return 1
		}
		fmt.Fprintf(f, "  %-28s %14.6g %-6s n=%d\n", d.name, m.value, d.unit, m.samples)
		line.Metrics[d.name] = metricJSON{Value: m.value, Unit: d.unit}
	}
	for _, e := range r.errors {
		fmt.Fprintln(f, "  failed", e)
	}
	prov := map[string]any{
		"workload":   c.w.name,
		"seed":       c.seed,
		"ops":        r.attempted,
		"failed":     r.failed,
		"error_rate": ratio(float64(r.failed), float64(r.attempted)),
		"digest":     r.digest,
		"provenance": provenance(),
	}
	if len(r.wall) > 0 {
		prov["wall_clock"] = r.wall
	}
	if len(r.defects) > 0 {
		prov["known_defects"] = r.defects
	}
	if r.spans != "" {
		prov["spans"] = r.spans
	}
	pb, _ := json.Marshal(prov)
	fmt.Fprintln(f, string(pb))
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(f, string(b))
	return 0
}

// spansFile names the span dump of a traced run.
func spansFile(c config) string {
	return filepath.Join(c.out, "trace", fmt.Sprintf("%s-seed%d.json", c.w.name, c.seed))
}
