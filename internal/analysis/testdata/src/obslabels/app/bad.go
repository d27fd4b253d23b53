package app

import "obslabels/obs"

func Register(m *obs.Metrics, scheduler string, n int) {
	m.Counter("bad-metric")         // want `metric name must match`
	m.Timing(`solve{mode=lp}`)      // want `label value must be double-quoted`
	obs.Gauge("queue{}", 0)         // want `empty label set`
	m.Counter("sim_events{kind}")   // want `label without '='`
	m.Counter("solve_" + scheduler) // want `metric name must match`
	m.Counter(scheduler)            // want `not a string literal`
	m.Timing(`solve{mode="lp"`)     // want `unbalanced label braces`
}
