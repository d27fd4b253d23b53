package main

import (
	"context"
	"strings"

	repro "repro"
)

// knownDefects are specs on which the program fails its own
// validation. The timed workloads leave them out, since a benchmark
// op must not fail; instead every run probes each one once, untimed,
// and prints whether it still fails, so the defects stay in sight.
var knownDefects = []struct {
	name string
	spec repro.Spec
}{
	// The LP leaves a 2e-6 tail of a flow in a later slot. The
	// schedule counts a slot as used above 1e-7, the validator's
	// replay above 1e-5, so the completions disagree ("reported
	// completion 5, replay gives 2"). About one TPC-H instance in 5000.
	{"stretch-lp-tail", repro.Spec{
		Topology:  "swan",
		Model:     "single",
		Scheduler: "stretch",
		Workload:  &repro.SpecWorkload{Kind: "tpch", Coflows: 6, Seed: 651871835, MeanInterarrival: 0.25},
		Options:   repro.SpecOptions{MaxSlots: 16, Seed: 1744937040},
		Validate:  true,
	}},
	// About 0.3% of FB instances at 60 coflows on swan: a reported
	// completion one slot after the replayed one.
	{"sincronia-greedy-off-by-one", repro.Spec{
		Topology:  "swan",
		Scheduler: "sincronia-greedy",
		Workload:  &repro.SpecWorkload{Kind: "fb", Coflows: 60, Seed: 278378344},
		Validate:  true,
	}},
}

// probeDefects runs every known-defect spec and says, for each,
// whether Run still fails it.
func probeDefects(ctx context.Context) map[string]string {
	out := map[string]string{}
	for _, d := range knownDefects {
		_, err := repro.Run(ctx, d.spec)
		if err == nil {
			out[d.name] = "fixed"
			continue
		}
		out[d.name] = "reproduces: " + strings.Join(strings.Fields(err.Error()), " ")
	}
	return out
}
