package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	repro "repro"
	"repro/internal/coflow"
	"repro/internal/validate"
)

// errIncorrect marks an output the gate rejected. The benchmark exits
// non-zero on it and prints no result; a typed error returned by the
// program is a failed op instead, counted in the error rate.
var errIncorrect = errors.New("incorrect output")

func incorrect(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errIncorrect, fmt.Sprintf(format, args...))
}

// relTol is the tolerance of recomputed aggregates, the same order as
// the program's own oracle uses for completion times.
const relTol = 1e-6

func near(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// lpSchedulers solve the Stretch LP, so their reports must carry its
// lower bound.
var lpSchedulers = map[string]bool{"stretch": true, "heuristic": true}

// quality is what one report says about schedule quality.
type quality struct {
	weightedRatio float64 // Σw·C over the LP bound, or over Σw·(trivial per-coflow bound)
	avgCCT        float64 // mean_j (C_j − r_j), slots
}

// checkReport is the output gate for one report of spec s. It trusts
// nothing the report says about itself: it rebuilds the instance from
// the spec and recomputes every aggregate from the completions.
func checkReport(s repro.Spec, rep *repro.RunReport) (quality, error) {
	var q quality
	if rep == nil {
		return q, incorrect("nil report")
	}
	if !rep.Validated {
		return q, incorrect("report is not validated")
	}
	in, err := s.Materialize()
	if err != nil {
		return q, fmt.Errorf("materializing the spec to check its report: %w", err)
	}
	nc := len(in.Coflows)
	if rep.Coflows != nc || rep.Flows != in.NumFlows() || len(rep.Completions) != nc {
		return q, incorrect("report sizes %d coflows/%d flows/%d completions, instance has %d/%d",
			rep.Coflows, rep.Flows, len(rep.Completions), nc, in.NumFlows())
	}
	var weighted, total, resp, makespan, trivial float64
	lbs := validate.CoflowLowerBounds(in, coflow.SinglePath)
	for j, c := range rep.Completions {
		cf := &in.Coflows[j]
		if math.IsNaN(c) || math.IsInf(lbs[j], 1) || c < lbs[j]-relTol*math.Max(1, lbs[j]) {
			return q, incorrect("coflow %d completes at %g, before its trivial bound %g", j, c, lbs[j])
		}
		weighted += cf.Weight * c
		total += c
		resp += c - cf.Release
		makespan = math.Max(makespan, c)
		trivial += cf.Weight * lbs[j]
	}
	if !near(weighted, rep.Weighted) || !near(total, rep.Total) || !near(makespan, rep.Makespan) {
		return q, incorrect("report says Σw·C=%g ΣC=%g makespan=%g, its completions give %g, %g, %g",
			rep.Weighted, rep.Total, rep.Makespan, weighted, total, makespan)
	}
	q.avgCCT = resp / float64(nc)
	q.weightedRatio = weighted / trivial
	switch rep.Kind {
	case "offline":
		if !lpSchedulers[rep.Scheduler] {
			break
		}
		if !rep.HasLowerBound || !(rep.LowerBound > 0) {
			return q, incorrect("offline %s report has no LP lower bound", rep.Scheduler)
		}
		if weighted < rep.LowerBound-relTol*math.Max(1, rep.LowerBound) {
			return q, incorrect("Σw·C %g is below the LP lower bound %g", weighted, rep.LowerBound)
		}
		q.weightedRatio = weighted / rep.LowerBound
	case "online":
		if !near(q.avgCCT, rep.AvgCCT) {
			return q, incorrect("report says avg CCT %g, its completions give %g", rep.AvgCCT, q.avgCCT)
		}
	default:
		return q, incorrect("report kind %q", rep.Kind)
	}
	return q, nil
}

// encodeServed is the body coflowd must send for a report: its JSON
// and a newline.
func encodeServed(rep *repro.RunReport) ([]byte, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func hashOf(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkServed compares the hash of a served body with the library
// report of the same spec.
func checkServed(op int, bodyHash string, want []byte) error {
	if got := hashOf(want); bodyHash != got {
		return incorrect("op %d: served body (sha256 %.12s) differs from the library report (sha256 %.12s)", op, bodyHash, got)
	}
	return nil
}
