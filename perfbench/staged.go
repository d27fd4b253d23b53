package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	repro "repro"
	"repro/internal/coflow"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simplex"
	"repro/internal/spec"
	"repro/internal/timegrid"
	"repro/internal/validate"
	generate "repro/internal/workload"
)

// stageCounts are the counts one staged op read at layer boundaries
// and from the telemetry registry the program exports.
type stageCounts struct {
	flows     int
	rows, nnz int // of the last LP built
	pivots    int
	solves    int
	warm      int // solves that accepted a warm basis
	retries   int // grid sizes given up on, solved or skipped
	replans   int
	replanSec float64
	events    int
}

// stagedRun executes spec s the way spec.Run does, but as separate
// public calls into each layer, each inside its own span under one
// root span for op. It returns the encoded report, which must equal
// json.Marshal of Run's report for the same spec: if it does not, the
// stages measure a different program. Only what the workloads use is
// staged — generated single path instances, the stretch scheduler
// and online policies without telemetry.
func stagedRun(ctx context.Context, tr *tracer, op int, s repro.Spec) ([]byte, stageCounts, error) {
	var n stageCounts
	root := tr.begin(op, 0, "spec.run")
	defer tr.end(root)
	stage := func(name string) func() {
		id := tr.begin(op, root, name)
		return func() { tr.end(id) }
	}

	done := stage("spec.normalize")
	ns, err := s.Normalized()
	done()
	if err != nil {
		return nil, n, err
	}
	if ns.Instance != nil || ns.Workload.File != "" || ns.Model != spec.ModelSingle || ns.Options.Telemetry {
		return nil, n, fmt.Errorf("staged pipeline covers generated single path specs without telemetry")
	}

	done = stage("topo.new")
	top, err := spec.ParseTopology(ns.Topology)
	done()
	if err != nil {
		return nil, n, err
	}
	kind, err := spec.ParseKind(ns.Workload.Kind)
	if err != nil {
		return nil, n, err
	}
	done = stage("workload.generate")
	in, err := generate.Generate(generate.Config{
		Kind:             kind,
		Graph:            top.Graph,
		NumCoflows:       ns.Workload.Coflows,
		Seed:             ns.Workload.Seed,
		MeanInterarrival: ns.Workload.MeanInterarrival,
		WeightMin:        ns.Workload.WeightMin,
		WeightMax:        ns.Workload.WeightMax,
		AssignPaths:      true,
		Endpoints:        top.Endpoints,
	})
	done()
	if err != nil {
		return nil, n, err
	}
	n.flows = in.NumFlows()

	reg := obs.NewRegistry()
	rep := &repro.RunReport{
		Spec:      ns,
		Scheduler: ns.Scheduler,
		Policy:    ns.Policy,
		Model:     ns.Model,
		Coflows:   len(in.Coflows),
		Flows:     in.NumFlows(),
	}
	rep.Spec.Instance = nil

	if ns.Scheduler != "" {
		rep.Kind = "offline"
		if ns.Scheduler != engine.NameStretch {
			return nil, n, fmt.Errorf("staged pipeline covers the stretch scheduler only, not %q", ns.Scheduler)
		}
		res, err := stagedStretch(ctx, stage, in, ns, reg, &n)
		if err != nil {
			return nil, n, err
		}
		rep.Weighted, rep.Total, rep.Completions = res.Weighted, res.Total, res.Completions
		rep.LowerBound, rep.HasLowerBound, rep.Extra = res.LowerBound, res.HasLowerBound, res.Extra
		for _, c := range res.Completions {
			rep.Makespan = max(rep.Makespan, c)
		}
		if ns.Validate {
			done = stage("validate")
			err = validate.Result(in, res).Err()
			done()
			if err != nil {
				return nil, n, err
			}
			rep.Validated = true
		}
	} else {
		rep.Kind = "online"
		done = stage("sim.simulate")
		res, err := sim.Simulate(ctx, in, sim.Options{
			Policy:      ns.Policy,
			Epoch:       ns.Options.Epoch,
			MaxSlots:    ns.Options.MaxSlots,
			Trials:      ns.Options.Trials,
			Seed:        ns.Options.Seed,
			Workers:     ns.Options.Workers,
			MaxEvents:   ns.Options.MaxEvents,
			Clairvoyant: ns.Options.Clairvoyant,
			CheckEvery:  ns.Options.CheckEvery,
			WarmLP:      ns.Options.WarmLP,
			Obs:         reg,
		})
		done()
		if err != nil {
			return nil, n, err
		}
		rep.Weighted, rep.Total, rep.AvgCCT, rep.Makespan = res.WeightedCCT, res.TotalCCT, res.AvgCCT, res.Makespan
		rep.Completions, rep.Replans, rep.Events = res.Completions, res.Replans, res.Events
		n.events = res.Events
		if ns.Validate {
			done = stage("validate")
			err = validate.SimResult(in, res, ns.Options.Clairvoyant).Err()
			done()
			if err != nil {
				return nil, n, err
			}
			rep.Validated = true
		}
	}
	readRegistry(reg.Snapshot(), &n, rep.Kind == "online")

	done = stage("spec.encode")
	body, err := json.Marshal(rep)
	done()
	return body, n, err
}

// stagedStretch is engine's stretch scheduler over core's public
// stages, with RunAdaptive's grid rule: start from DefaultGrid, skip
// sizes below the certified makespan bound, and double on an
// infeasible or over-budget LP, up to four times the slot cap.
func stagedStretch(ctx context.Context, stage func(string) func(), in *coflow.Instance, ns repro.Spec, reg *obs.Registry, n *stageCounts) (*engine.Result, error) {
	eo := engine.Options{MaxSlots: ns.Options.MaxSlots, Trials: ns.Options.Trials}.Normalize()
	opt := core.Options{
		DisableCompaction: ns.Options.DisableCompaction,
		Trials:            eo.Trials,
		Seed:              ns.Options.Seed,
		Workers:           ns.Options.Workers,
		Obs:               reg,
	}
	done := stage("core.grid")
	slots := core.DefaultGrid(in, coflow.SinglePath, eo.MaxSlots).NumSlots()
	lower := in.HorizonLowerBound(coflow.SinglePath)
	done()
	for {
		if float64(slots) < lower-1e-9 && slots < 4*eo.MaxSlots {
			n.retries++
			slots *= 2
			continue
		}
		opt.Grid = timegrid.Uniform(slots)
		res, err := stagedCore(ctx, stage, in, opt, n)
		if err == nil {
			res.Extra["grid-slots"] = float64(slots)
			return res, nil
		}
		if core.RetryableLP(err) && slots < 4*eo.MaxSlots {
			n.retries++
			slots *= 2
			continue
		}
		return nil, fmt.Errorf("engine: %s: %w", engine.NameStretch, err)
	}
}

// stagedCore is one grid attempt: build, solve, λ=1 heuristic and the
// randomized roundings, folded the way the stretch scheduler folds
// them (best of heuristic and roundings).
func stagedCore(ctx context.Context, stage func(string) func(), in *coflow.Instance, opt core.Options, n *stageCounts) (*engine.Result, error) {
	done := stage("model.build")
	l, err := model.BuildSinglePath(in, opt.Grid)
	done()
	if err != nil {
		return nil, err
	}
	n.rows, n.nnz = l.Model.NumConstrs(), l.Model.NumNonzeros()
	done = stage("simplex.solve")
	sol, err := l.SolveWarm(ctx, simplex.Options{Obs: opt.Obs}, opt.WarmBasis)
	done()
	if err != nil {
		return nil, err
	}
	done = stage("core.heuristic")
	h, err := core.Heuristic(sol, opt)
	done()
	if err != nil {
		return nil, err
	}
	var st *core.StretchStats
	if opt.Trials > 0 && opt.Grid.IsUniform() {
		done = stage("core.trials")
		st, err = core.StretchTrials(ctx, sol, opt.Trials, opt)
		done()
		if err != nil {
			return nil, err
		}
	}

	res := &engine.Result{
		Scheduler:     engine.NameStretch,
		Mode:          coflow.SinglePath,
		LowerBound:    sol.LowerBound,
		HasLowerBound: true,
		Extra:         map[string]float64{"simplex-iterations": float64(sol.Iterations)},
	}
	if sol.WarmStart != simplex.WarmNone {
		res.Extra["warm-start"] = float64(sol.WarmStart)
	}
	best := h
	if st != nil {
		res.Extra["best-lambda"] = st.BestLambda
		res.Extra["avg-weighted"] = st.AvgWeighted
		res.Extra["avg-total"] = st.AvgTotal
		for i := range st.Samples {
			if ev := &st.Samples[i]; ev.Weighted < best.Weighted {
				best = ev
			}
		}
	}
	res.Weighted, res.Total, res.Completions, res.Schedule = best.Weighted, best.Total, best.Completions, best.Schedule
	return res, nil
}

// readRegistry takes the pivot and warm-start counts of one op, and
// for online ops the engine calls the simulator made to replan, from
// the registry its calls recorded into.
func readRegistry(s *obs.Snapshot, n *stageCounts, online bool) {
	n.pivots = int(s.Counters["simplex_pivots_total"])
	n.solves = int(s.Counters["simplex_solves_total"])
	n.warm = int(s.Counters[`simplex_warm_start_total{outcome="accepted"}`])
	if !online {
		return
	}
	for name, t := range s.Timings {
		if strings.HasPrefix(name, "engine_schedule{") {
			n.replans += int(t.Count)
			n.replanSec += t.Seconds
		}
	}
}
