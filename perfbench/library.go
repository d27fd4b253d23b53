package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"

	repro "repro"
)

// setupSeed fixes the set-up spec: set-up time measures the program
// starting and running its first spec, not the run seed's instances.
const setupSeed = 1

// setupChildEnv names the workload whose set-up spec a set-up child
// process runs.
const setupChildEnv = "PERFBENCH_SETUP_CHILD"

// setupChild is the whole of a set-up child process: when
// setupChildEnv is set, run that workload's set-up spec once and exit.
func setupChild() {
	name := os.Getenv(setupChildEnv)
	if name == "" {
		return
	}
	w, err := findWorkload(name)
	if err == nil {
		err = setupOnce(context.Background(), w, defaultSizes)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// setupOnce runs the workload's set-up spec once and checks it.
func setupOnce(ctx context.Context, w workload, z sizes) error {
	s := w.spec(z, setupSeed, 0)
	rep, err := repro.Run(ctx, s)
	if err != nil {
		return err
	}
	_, err = checkReport(s, rep)
	return err
}

// measureSetup starts setupRuns fresh processes that each run the
// set-up spec once, and sets setup_s to the median seconds from start
// to exit, scaled to the reference speed.
func measureSetup(ctx context.Context, c config, r *result) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var t timings
	for range setupRuns {
		cmd := exec.CommandContext(ctx, self)
		cmd.Env = append(os.Environ(), setupChildEnv+"="+c.w.name)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("set-up process: %v: %s", err, stderr.Bytes())
		}
		t.add(time.Since(t0))
	}
	r.metrics["setup_s"] = measured{median(t.scaled) / 1e3, len(t.scaled)}
	r.wall["setup_s"] = median(t.raw) / 1e3
	return nil
}

// layerSamples collects one traced run's per-op values by metric name.
type layerSamples map[string][]float64

func (l layerSamples) add(name string, v float64) { l[name] = append(l[name], v) }

// runLibrary runs a library workload: ops call repro.Run one after
// another on the seed's spec sequence until the window of op time is
// spent and at least z.minOps ops ran. Every report passes the gate.
// A traced run also runs each op's spec through the staged pipeline,
// which must reproduce Run's report byte for byte.
func runLibrary(ctx context.Context, c config) (*result, error) {
	r := &result{metrics: map[string]measured{}, wall: map[string]float64{}}
	if !c.trace {
		if err := measureSetup(ctx, c, r); err != nil {
			return nil, err
		}
	}
	if err := setupOnce(ctx, c.w, c.z); err != nil { // untimed warm-up
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	var (
		ratios, ccts []float64
		times        timings
		busy         time.Duration
		digest       = sha256.New()
		layers       = layerSamples{}
		ms0, ms1     runtime.MemStats
	)
	for i := 0; busy < c.window || i < c.z.minOps; i++ {
		s := c.w.spec(c.z, c.seed, i)
		// Start every op on a collected heap, so that no op pays for
		// the garbage of the checks before it and the peak RSS does
		// not hinge on where a collection happened to fall.
		runtime.GC()
		if c.trace {
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		rep, err := repro.Run(ctx, s)
		d := time.Since(t0)
		if c.trace {
			runtime.ReadMemStats(&ms1)
		}
		busy += d
		if !c.trace {
			times.add(d)
		}
		r.attempted++
		if err != nil {
			r.fail(i, s, err)
			if i < c.z.minOps {
				fmt.Fprintf(digest, "op %d failed\n", i)
			}
			continue
		}
		q, err := checkReport(s, rep)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		body, err := json.Marshal(rep)
		if err != nil {
			return nil, fmt.Errorf("op %d: encoding the report: %w", i, err)
		}
		if i < c.z.minOps {
			ratios = append(ratios, q.weightedRatio)
			ccts = append(ccts, q.avgCCT)
			digest.Write(body)
		}
		if c.trace {
			layers.add("run.alloc_bytes", float64(ms1.TotalAlloc-ms0.TotalAlloc))
			layers.add("run.allocs", float64(ms1.Mallocs-ms0.Mallocs))
			ts := time.Now()
			if err := traceOp(ctx, tr, i, s, body, d, layers); err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			busy += time.Since(ts)
		}
	}
	r.digest = hex.EncodeToString(digest.Sum(nil))
	if c.trace {
		layerMetrics(r, layers)
		r.spans = spansFile(c)
		if err := tr.write(r.spans); err != nil {
			return nil, err
		}
		return r, nil
	}

	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, fmt.Errorf("reading peak RSS: %w", err)
	}
	times.report(r, r.attempted-r.failed)
	r.metrics["success_rate"] = measured{1 - ratio(float64(r.failed), float64(r.attempted)), r.attempted}
	r.metrics["weighted_cct_ratio"] = measured{mean(ratios), len(ratios)}
	r.metrics["avg_cct_slots"] = measured{mean(ccts), len(ccts)}
	r.metrics["peak_rss_mb"] = measured{rss, 1}
	return r, nil
}

// traceOp runs spec s through the staged pipeline under op's spans,
// checks it reproduces want (the encoded Run report, which took
// untraced), and adds the op's per-layer values to layers.
func traceOp(ctx context.Context, tr *tracer, op int, s repro.Spec, want []byte, untraced time.Duration, layers layerSamples) error {
	got, n, err := stagedRun(ctx, tr, op, s)
	if err != nil {
		return fmt.Errorf("%w: staged pipeline failed where Run succeeded: %v", errIncorrect, err)
	}
	if !bytes.Equal(got, want) {
		return incorrect("staged pipeline report differs from Run's (%d vs %d bytes)", len(got), len(want))
	}
	spans := tr.opSpans(op)
	self := selfMillis(spans)
	var root, stages float64
	for _, sp := range spans {
		if sp.Parent == 0 {
			root += float64(sp.End-sp.Start) / 1e6
		} else {
			stages += float64(sp.End-sp.Start) / 1e6
		}
	}
	u := untraced.Seconds() * 1e3
	layers.add("trace.coverage", stages/u)
	layers.add("trace.overhead", (root-u)/u)
	for stage, metric := range stageMetrics {
		if v, ok := self[stage]; ok {
			layers.add(metric, v)
		}
	}
	layers.add("workload.flows", float64(n.flows))
	if solve, ok := self["simplex.solve"]; ok {
		layers.add("model.rows", float64(n.rows))
		layers.add("model.nonzeros", float64(n.nnz))
		layers.add("core.grid_retries", float64(n.retries))
		if n.pivots > 0 {
			layers.add("simplex.us_per_pivot", solve*1e3/float64(n.pivots))
		}
	}
	if n.solves > 0 {
		layers.add("simplex.pivots", float64(n.pivots))
		layers.add("simplex.solves", float64(n.solves))
		layers.add("simplex.warm", float64(n.warm))
	}
	if sim, ok := self["sim.simulate"]; ok {
		layers.add("sim.events", float64(n.events))
		layers.add("sim.events_per_s", float64(n.events)/(sim/1e3))
		layers.add("engine.replans", float64(n.replans))
		layers.add("engine.replan_ms", n.replanSec*1e3)
	}
	return nil
}

// stageMetrics maps span names to the per-layer metric of their self
// time.
var stageMetrics = map[string]string{
	"spec.normalize":    "spec.normalize_ms",
	"topo.new":          "topo.new_ms",
	"workload.generate": "workload.generate_ms",
	"model.build":       "model.build_ms",
	"simplex.solve":     "simplex.solve_ms",
	"core.heuristic":    "core.heuristic_ms",
	"core.trials":       "core.trials_ms",
	"sim.simulate":      "sim.simulate_ms",
	"validate":          "validate.ms",
	"spec.encode":       "spec.encode_ms",
}

// layerMetrics folds per-op samples into the per-layer metrics: the
// median per op, except for the warm-start ratio (accepted warm starts
// over all solves) and grid retries (mean per op, since most ops have
// none). Every per-layer metric is set; a layer the workload never
// reached reports 0.
func layerMetrics(r *result, l layerSamples) {
	for _, d := range perLayer {
		if _, ok := r.metrics[d.name]; !ok {
			r.metrics[d.name] = measured{median(l[d.name]), len(l[d.name])}
		}
	}
	r.metrics["simplex.warm_start_ratio"] = measured{ratio(sum(l["simplex.warm"]), sum(l["simplex.solves"])), len(l["simplex.solves"])}
	r.metrics["core.grid_retries"] = measured{mean(l["core.grid_retries"]), len(l["core.grid_retries"])}
}
