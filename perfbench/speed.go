package main

import (
	"math"
	"time"
)

// The shared hosts this benchmark runs on change speed by a third
// within a minute: a fixed spec takes 15 ms, then 25 ms, then 15 ms
// again, as other tenants load the machine. Raw wall times of the
// same code then spread wider than any bound that could still tell a
// regression from noise. So every timed op is followed by a speed
// probe — fixed work that touches nothing of the program — and the
// reported times are scaled to a host on which the probe takes
// refProbeMs: an op that took d while the probe took p reports
// d·refProbeMs/p. On that host the scaled times are wall times. The
// run's raw wall times and probe times are printed beside them.

// refProbeMs is the probe time the reported times are scaled to. On
// the 2 GHz Xeon vCPUs these numbers come from, the probe takes about
// 1.4 ms while the host runs fast and 2.3 ms while it runs slow.
const refProbeMs = 2.0

// probeState is the probe's working set: a 1 MiB vector it updates in
// a strided walk, and a dense 300×300 matrix it multiplies a vector by.
// It is allocated once, so a probe does not allocate.
var probeState = newProbeState()

type probeData struct {
	buf, v, w []float64
	mat       [][]float64
}

func newProbeState() probeData {
	s := probeData{buf: make([]float64, 1<<17), v: make([]float64, 300), w: make([]float64, 300)}
	s.mat = make([][]float64, 300)
	for i := range s.mat {
		s.mat[i] = make([]float64, 300)
		for j := range s.mat[i] {
			s.mat[i][j] = float64((i*31+j*17)%97) / 97
		}
	}
	return s
}

// probeSink keeps the probe's result live.
var probeSink float64

// speedProbe runs the probe once and returns its wall time in ms.
func speedProbe() float64 {
	t0 := time.Now()
	s := &probeState
	x := 0.0
	for r := range 2 {
		for i := range s.buf {
			j := (i * 7919) & (len(s.buf) - 1)
			s.buf[j] = s.buf[j]*0.999 + math.Sqrt(float64(i+r))
			x += s.buf[j]
		}
	}
	for i := range s.v {
		s.v[i] = 1
	}
	for range 6 {
		for i, row := range s.mat {
			sum := 0.0
			for j, a := range row {
				sum += a * s.v[j]
			}
			s.w[i] = sum / 300
		}
		s.v, s.w = s.w, s.v
	}
	probeSink += x + s.v[0]
	return time.Since(t0).Seconds() * 1e3
}

// timings are the timed ops of one run, each as its raw wall time, as
// scaled to the reference speed and as the probe time next to it, in
// ms.
type timings struct{ raw, scaled, probes []float64 }

// add records an op that took d, probing the speed right after it.
func (t *timings) add(d time.Duration) {
	p := speedProbe()
	t.raw = append(t.raw, d.Seconds()*1e3)
	t.scaled = append(t.scaled, d.Seconds()*1e3*refProbeMs/p)
	t.probes = append(t.probes, p)
}

// report sets the run's latency and throughput metrics from the
// scaled times, and its wall-clock figures from the raw ones.
func (t *timings) report(r *result, completed int) {
	n := len(t.scaled)
	r.metrics["latency_p50_ms"] = measured{median(t.scaled), n}
	r.metrics["latency_p90_ms"] = measured{quantile(t.scaled, 0.9), n}
	r.metrics["runs_per_s"] = measured{float64(completed) / (sum(t.scaled) / 1e3), n}
	r.wall["latency_p50_ms"] = median(t.raw)
	r.wall["latency_p90_ms"] = quantile(t.raw, 0.9)
	r.wall["runs_per_s"] = float64(completed) / (sum(t.raw) / 1e3)
	r.wall["probe_p50_ms"] = median(t.probes)
}
