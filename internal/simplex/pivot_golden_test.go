package simplex_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/coflow"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/simplex"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// The pivot golden pins, for a fixed corpus of LPs, the exact step
// sequence of the solver — every (entering, leaving) pair, bound flips
// included — together with the iteration count and the bits of Obj, X
// and Y. Any change to pricing, the ratio test, the factorization or
// their floating-point order shows up here first. After an intended
// change, regenerate and review the diff:
//
//	UPDATE_GOLDEN=1 go test -run TestPivotGolden ./internal/simplex/
const pivotGoldenFile = "testdata/pivot_golden.json"

type pivotGolden struct {
	Name       string `json:"name"`
	Rows       int    `json:"rows"`
	Cols       int    `json:"cols"`
	Status     string `json:"status"`
	Iterations int    `json:"iterations"`
	Steps      int    `json:"steps"`
	StepsSHA   string `json:"steps_sha256"`
	ObjBits    string `json:"obj_bits"`
	XSHA       string `json:"x_sha256"`
	YSHA       string `json:"y_sha256"`
}

type corpusLP struct {
	name string
	p    *simplex.Problem
	warm *simplex.Basis // optional Options.WarmStart
}

// stretchLP captures the single path Stretch relaxation of a generated
// instance on SWAN, as the offline pipeline builds it (default grid
// capped at maxSlots).
func stretchLP(t *testing.T, kind workload.Kind, coflows int, seed int64, maxSlots int) *simplex.Problem {
	t.Helper()
	inst, err := workload.Generate(workload.Config{
		Kind:             kind,
		Graph:            graph.SWAN(1),
		NumCoflows:       coflows,
		Seed:             seed,
		MeanInterarrival: 0.25,
		AssignPaths:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var p *simplex.Problem
	opt := core.Options{
		Grid:    core.DefaultGrid(inst, coflow.SinglePath, maxSlots),
		Simplex: simplex.CaptureProblem(simplex.Options{}, &p),
	}
	if _, err := core.SolveLP(context.Background(), inst, coflow.SinglePath, opt); err != nil {
		t.Fatalf("%v seed %d: %v", kind, seed, err)
	}
	if p == nil {
		t.Fatalf("%v seed %d: no problem captured", kind, seed)
	}
	return p
}

// dupAssignmentLP is the rank-deficient assignment polytope of the
// lp/degenerate-robust bench cell: every row and column sum of a k×k
// assignment stated twice, small-integer costs full of ties.
func dupAssignmentLP(k int, seed int64) *simplex.Problem {
	rng := rand.New(rand.NewSource(seed))
	m, n := 4*k, k*k
	bld := sparse.NewBuilder(m, n)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			v := i*k + j
			bld.Add(i, v, 1)
			bld.Add(k+i, v, 1)
			bld.Add(2*k+j, v, 1)
			bld.Add(3*k+j, v, 1)
		}
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = 1
	}
	c := make([]float64, n)
	for j := range c {
		c[j] = float64(rng.Intn(3))
	}
	l := make([]float64, n)
	u := make([]float64, n)
	for j := range u {
		u[j] = 1
	}
	return &simplex.Problem{A: bld.Build(), B: b, C: c, L: l, U: u}
}

func pivotCorpus(t *testing.T) []corpusLP {
	var c []corpusLP
	for seed := int64(1); seed <= 5; seed++ {
		c = append(c, corpusLP{name: fmt.Sprintf("stretch/swan/tpch/n=6/seed=%d", seed),
			p: stretchLP(t, workload.TPCH, 6, seed, 16)})
	}
	for seed := int64(1); seed <= 3; seed++ {
		c = append(c, corpusLP{name: fmt.Sprintf("stretch/swan/fb/n=5/seed=%d", seed),
			p: stretchLP(t, workload.FB, 5, seed, 16)})
	}
	// Warm re-solves: the cold optimal basis of a TPC-H relaxation
	// seeds phase 2 on the same LP with costs scaled by up to +50%.
	for _, base := range c[:2] {
		sol, err := simplex.Solve(context.Background(), base.p, simplex.Options{})
		if err != nil || sol.Basis == nil {
			t.Fatalf("%s: no exportable basis (%v)", base.name, err)
		}
		r := rand.New(rand.NewSource(int64(len(base.name))))
		p := *base.p
		p.C = append([]float64(nil), p.C...)
		for j := range p.C {
			p.C[j] *= 1 + 0.5*r.Float64()
		}
		c = append(c, corpusLP{name: base.name + "/warm", p: &p, warm: sol.Basis})
	}
	// The robustness suite's first 40 degenerate LPs (same seed chain).
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 40; i++ {
		r := rand.New(rand.NewSource(rng.Int63()))
		c = append(c, corpusLP{name: fmt.Sprintf("degenerate/%02d", i), p: simplex.DegenerateLP(r)})
	}
	for seed := int64(1); seed <= 3; seed++ {
		c = append(c, corpusLP{name: fmt.Sprintf("dup-assignment/k=6/seed=%d", seed), p: dupAssignmentLP(6, seed)})
	}
	// Random boxed LPs at m ≥ 64, where the sparse solve paths engage
	// and bound flips are common.
	rr := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		c = append(c, corpusLP{name: fmt.Sprintf("random/m=96/n=160/%d", i), p: simplex.RandomFeasibleLP(rr, 96, 160)})
	}
	return c
}

func floatsSHA(v []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func stepsSHA(steps [][2]int) string {
	h := sha256.New()
	var buf [16]byte
	for _, st := range steps {
		binary.LittleEndian.PutUint64(buf[:8], uint64(int64(st[0])))
		binary.LittleEndian.PutUint64(buf[8:], uint64(int64(st[1])))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestPivotGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("pivot golden solves the full corpus")
	}
	var got []pivotGolden
	for _, lp := range pivotCorpus(t) {
		sol, steps, err := simplex.SolveTraced(context.Background(), lp.p, simplex.Options{WarmStart: lp.warm})
		if err != nil {
			t.Fatalf("%s: %v", lp.name, err)
		}
		got = append(got, pivotGolden{
			Name:       lp.name,
			Rows:       lp.p.A.Rows,
			Cols:       lp.p.A.Cols,
			Status:     sol.Status.String() + "/warm-" + sol.WarmStart.String(),
			Iterations: sol.Iterations,
			Steps:      len(steps),
			StepsSHA:   stepsSHA(steps),
			ObjBits:    fmt.Sprintf("%016x", math.Float64bits(sol.Obj)),
			XSHA:       floatsSHA(sol.X),
			YSHA:       floatsSHA(sol.Y),
		})
	}
	// The stretch LPs must be large enough for the sparse solve paths
	// (the LU and eta layers switch at 64 rows).
	for _, g := range got[:8] {
		if g.Rows < 64 {
			t.Fatalf("%s has %d rows, want ≥ 64", g.Name, g.Rows)
		}
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(pivotGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pivotGoldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(pivotGoldenFile)
	if err != nil {
		t.Fatalf("missing golden (run UPDATE_GOLDEN=1 go test -run TestPivotGolden ./internal/simplex/): %v", err)
	}
	var want []pivotGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("corpus has %d LPs, golden %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: pivot trace changed\n got  %+v\n want %+v", got[i].Name, got[i], want[i])
		}
	}
}
