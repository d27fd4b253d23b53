package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	repro "repro"
)

// tinySizes keep the smoke runs to a second or two each.
var tinySizes = sizes{
	offlineCoflows: 3,
	offlineSlots:   8,
	simCoflows:     40,
	replanCoflows:  4,
	svcCoflows:     30,
	minOps:         6,
}

// coflowdBin is built once by TestMain for the service smoke runs.
var coflowdBin string

func TestMain(m *testing.M) {
	setupChild() // set-up child processes re-execute the test binary
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	coflowdBin = filepath.Join(dir, "coflowd")
	cmd := exec.Command("go", "build", "-o", coflowdBin, "repro/cmd/coflowd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.RemoveAll(dir)
		panic("building coflowd: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func tinyConfig(t *testing.T, name string, trace bool) config {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return config{w: w, z: tinySizes, seed: 7, trace: trace, coflowd: coflowdBin, out: t.TempDir()}
}

// TestSmoke runs every workload at tiny sizes through the real
// harness, untraced and traced, and checks every metric is reported.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + map[bool]string{false: "/end-to-end", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				c := tinyConfig(t, w.name, trace)
				r, err := runWorkload(context.Background(), c)
				if err != nil {
					t.Fatal(err)
				}
				if r.attempted < c.z.minOps || r.digest == "" {
					t.Fatalf("attempted %d ops (want ≥ %d), digest %q", r.attempted, c.z.minOps, r.digest)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				for _, d := range defs {
					if _, ok := r.metrics[d.name]; !ok {
						t.Errorf("metric %s missing", d.name)
					}
				}
				if !trace {
					for _, d := range endToEnd {
						if v := r.metrics[d.name].value; !(v > 0) {
							t.Errorf("end-to-end metric %s = %g, want > 0", d.name, v)
						}
					}
				}
				if trace {
					if _, err := os.Stat(r.spans); err != nil {
						t.Errorf("span dump: %v", err)
					}
				}
			})
		}
	}
}

// TestDigestFollowsSeed pins that the same seed gives the same
// reports and another seed gives other ones.
func TestDigestFollowsSeed(t *testing.T) {
	digest := func(seed int64) string {
		c := tinyConfig(t, "online-sim", false)
		c.seed = seed
		r, err := runLibrary(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		return r.digest
	}
	a, b, other := digest(3), digest(3), digest(4)
	if a != b {
		t.Errorf("seed 3 gave digests %s and %s", a, b)
	}
	if a == other {
		t.Errorf("seeds 3 and 4 gave the same digest %s", a)
	}
}

// offlineReport runs one tiny offline-stretch spec.
func offlineReport(t *testing.T) (repro.Spec, *repro.RunReport) {
	t.Helper()
	s := offlineStretchSpec(tinySizes, 5, 0)
	rep, err := repro.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkReport(s, rep); err != nil {
		t.Fatalf("untampered report rejected: %v", err)
	}
	return s, rep
}

// TestGateCatchesTamperedReports shows the gate rejects reports that
// differ from a correct one in a single field.
func TestGateCatchesTamperedReports(t *testing.T) {
	cases := map[string]func(r *repro.RunReport){
		"shifted completion":  func(r *repro.RunReport) { r.Completions[0] += 1 },
		"below the LP bound":  func(r *repro.RunReport) { r.LowerBound = r.Weighted * 1.01 },
		"no LP bound":         func(r *repro.RunReport) { r.HasLowerBound = false },
		"not validated":       func(r *repro.RunReport) { r.Validated = false },
		"completion too soon": func(r *repro.RunReport) { r.Completions[0] = 0; r.Weighted, r.Total = 0, 0 },
		"lost a coflow":       func(r *repro.RunReport) { r.Completions = r.Completions[1:] },
	}
	for name, tamper := range cases {
		t.Run(name, func(t *testing.T) {
			s, rep := offlineReport(t)
			bad := *rep
			bad.Completions = slices.Clone(rep.Completions)
			tamper(&bad)
			if _, err := checkReport(s, &bad); !errors.Is(err, errIncorrect) {
				t.Fatalf("tampered report passed the gate (err = %v)", err)
			}
		})
	}
}

// TestGateCatchesServedBodyMismatch feeds the service check a body
// that differs from the library report of its spec by one byte.
func TestGateCatchesServedBodyMismatch(t *testing.T) {
	c := tinyConfig(t, "service", false)
	rep, err := repro.Run(context.Background(), serviceFresh(c.z, c.seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	body, err := encodeServed(rep)
	if err != nil {
		t.Fatal(err)
	}
	good := []served{{op: 0, k: 0, hash: hashOf(body)}}
	if _, _, _, err := checkService(context.Background(), c, good, nil); err != nil {
		t.Fatalf("matching body rejected: %v", err)
	}
	tampered := slices.Clone(body)
	tampered[len(tampered)-2] = ' ' // the closing brace of the report
	bad := []served{{op: 0, k: 0, hash: hashOf(tampered)}}
	if _, _, _, err := checkService(context.Background(), c, bad, nil); !errors.Is(err, errIncorrect) {
		t.Fatalf("mismatched body passed the gate (err = %v)", err)
	}
}

// TestStagedMismatchIsIncorrect pins that a traced op whose staged
// report differs from Run's fails as an incorrect output.
func TestStagedMismatchIsIncorrect(t *testing.T) {
	s, rep := offlineReport(t)
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	if err := traceOp(context.Background(), tr, 0, s, want, 1, layerSamples{}); err != nil {
		t.Fatalf("staged pipeline does not reproduce Run: %v", err)
	}
	want[len(want)-2] = ' '
	if err := traceOp(context.Background(), tr, 1, s, want, 1, layerSamples{}); !errors.Is(err, errIncorrect) {
		t.Fatalf("staged mismatch passed (err = %v)", err)
	}
}

// TestKnownDefectsReproduce pins the known defects and the pool
// entries offline-stretch leaves out because of them: each must still
// fail the program's own validation. When a fix makes one pass, drop
// it from knownDefects or offlineExcluded, so that the workload takes
// the entry again.
func TestKnownDefectsReproduce(t *testing.T) {
	for name, got := range probeDefects(context.Background()) {
		if !strings.HasPrefix(got, "reproduces: ") || !strings.Contains(got, "validation") {
			t.Errorf("known defect %s: %s", name, got)
		}
	}
	for k := range offlineExcluded {
		if _, err := repro.Run(context.Background(), offlineStretchEntry(defaultSizes, k)); err == nil {
			t.Errorf("excluded offline-stretch pool entry %d now passes", k)
		}
	}
}

// TestServiceOpsSequence pins the repeat mix: about serviceRepeat of
// the ops repeat, only recent fresh specs are repeated, and the
// sequence is a function of the seed alone.
func TestServiceOpsSequence(t *testing.T) {
	seq := func(seed int64) []int {
		ops := &serviceOps{seed: seed}
		var ks []int
		for range 2000 {
			_, k := ops.take()
			ks = append(ks, k)
		}
		return ks
	}
	a := seq(9)
	if !slices.Equal(a, seq(9)) {
		t.Fatal("same seed, different op sequence")
	}
	fresh, repeats := 0, 0
	for _, k := range a {
		switch {
		case k == fresh:
			fresh++
		case k > fresh-1-serviceRecent && k < fresh:
			repeats++
		default:
			t.Fatalf("op sent fresh spec %d with %d fresh specs sent", k, fresh)
		}
	}
	if share := float64(repeats) / float64(len(a)); share < serviceRepeat-0.05 || share > serviceRepeat+0.05 {
		t.Errorf("repeat share %.3f, want about %.2f", share, serviceRepeat)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	same := func(kind string, json []def, prog []metricDef) {
		if len(json) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(json), len(prog))
			return
		}
		for i := range prog {
			if json[i].Name != prog[i].name || json[i].Unit != prog[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, json[i].Name, json[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}
