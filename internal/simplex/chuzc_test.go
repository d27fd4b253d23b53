package simplex

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// chuzcReference is the entering-column rule written as the plain
// ascending scan the tournament tree replaces: in Bland mode the first
// eligible column, otherwise the first column with the largest Devex
// score d²/w above zero.
func chuzcReference(s *solver) (int, float64) {
	best, bestScore, bestDir := -1, 0.0, 0.0
	for j := 0; j < s.total; j++ {
		if s.state[j] == stBasic {
			continue
		}
		dir, ok := s.eligible(j)
		if !ok {
			continue
		}
		if s.bland {
			return j, dir
		}
		d := s.ddw[2*j]
		if score := d * d / s.ddw[2*j+1]; score > bestScore {
			best, bestScore, bestDir = j, score, dir
		}
	}
	return best, bestDir
}

// sparseMixedLP builds a feasible sparse LP with every bound shape the
// solver distinguishes — boxed, fixed, one-sided, free — and
// small-integer costs, so Devex scores tie often. Each column draws
// 1..perCol entries.
func sparseMixedLP(r *rand.Rand, m, n, perCol int) *Problem {
	bld := sparse.NewBuilder(m, n)
	for j := 0; j < n; j++ {
		for t := 0; t < 1+r.Intn(perCol); t++ {
			bld.Add(r.Intn(m), j, float64(r.Intn(9)-4))
		}
	}
	for i := 0; i < m; i++ { // no empty rows
		bld.Add(i, r.Intn(n), 1+float64(r.Intn(3)))
	}
	a := bld.Build()
	l := make([]float64, n)
	u := make([]float64, n)
	x0 := make([]float64, n)
	c := make([]float64, n)
	for j := 0; j < n; j++ {
		lo := -float64(r.Intn(4))
		switch r.Intn(6) {
		case 0: // fixed
			l[j], u[j] = lo, lo
		case 1: // lower bound only
			l[j], u[j] = lo, math.Inf(1)
		case 2: // upper bound only
			l[j], u[j] = math.Inf(-1), lo+3
		case 3: // free
			l[j], u[j] = math.Inf(-1), math.Inf(1)
		default: // boxed
			l[j], u[j] = lo, lo+float64(1+r.Intn(4))
		}
		switch {
		case l[j] == u[j]:
			x0[j] = l[j]
		case math.IsInf(l[j], -1) && math.IsInf(u[j], 1):
			x0[j] = float64(r.Intn(5) - 2)
		case math.IsInf(u[j], 1):
			x0[j] = l[j] + float64(r.Intn(3))
		case math.IsInf(l[j], -1):
			x0[j] = u[j] - float64(r.Intn(3))
		default:
			x0[j] = l[j] + (u[j]-l[j])*float64(r.Intn(3))/2
		}
		// Free columns get costs that keep the LP bounded only by
		// luck; a nonzero cost on a free column is what makes the
		// sweep meet unbounded verdicts too.
		c[j] = float64(r.Intn(7) - 3)
	}
	b := make([]float64, m)
	a.MulVec(x0, b)
	return &Problem{A: a, B: b, C: c, L: l, U: u}
}

// devexReference predicts the Devex weights a basis change leaves:
// entering column q replaces the basic variable at row r. It runs the
// textbook update column by column — α_rj from a fresh BTran of e_r
// and one ColDot per nonbasic column, no support tracking — and the
// reset rule: when a nonbasic weight other than q's exceeds
// devexResetWeight, every weight returns to 1. Call it before the
// pivot touches the solver; it returns every column's weight after,
// and whether the framework was reset.
func devexReference(s *solver, q, r int) ([]float64, bool) {
	rho := make([]float64, s.m)
	rho[r] = 1
	s.bas.btran(rho)
	alpha := s.w[r]
	gamma := s.ddw[2*q+1] / (alpha * alpha)
	want := make([]float64, s.total)
	reset := false
	for j := 0; j < s.total; j++ {
		want[j] = s.ddw[2*j+1]
		if s.state[j] == stBasic || j == q {
			continue
		}
		if a := s.colDot(j, rho); a != 0 {
			want[j] = math.Max(want[j], a*a*gamma)
		}
		reset = reset || want[j] > devexResetWeight
	}
	if reset {
		for j := range want {
			want[j] = 1
		}
		return want, true
	}
	want[s.basisOf[r]] = math.Max(gamma, 1)
	return want, false
}

// TestCHUZCMatchesReference sweeps random sparse LPs and checks, at
// every entering-column choice, that the incremental tournament tree
// picks exactly what the ascending argmax scan picks, and that the
// state the pivots maintain incrementally matches a from-scratch
// recount: every column's score, the heavy-weight count, the Devex
// weights and reset rule (devexReference), and the cleared ρ and w.
// The price hook also forces Bland mode, cost perturbations, oversized
// Devex weights — on a bystander column or on the column about to
// enter — and reduced-cost drift at fixed choice counts, so the sweep
// reaches the modes small LPs rarely enter on their own; bound flips
// occur naturally on the boxed columns.
func TestCHUZCMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var prices, flips, blands, perturbs, heavies, resets, drifts int
	for iter := 0; iter < 120; iter++ {
		r := rand.New(rand.NewSource(rng.Int63()))
		m := 4 + r.Intn(20)
		if iter%3 == 0 {
			m = 64 + r.Intn(80) // sparse LU and eta paths
		}
		n := m + 1 + r.Intn(2*m)
		perCol := 4
		if iter%6 == 0 {
			perCol = 8 // denser FTRAN results: support tracking gives up
		}
		p := sparseMixedLP(r, m, n, perCol)
		calls := 0
		var cur *solver     // the solve's solver, as the price hook last saw it
		var wantW []float64 // Devex weights the last basis change must leave
		h := &testHooks{
			price: func(s *solver, j int, dir float64) {
				cur = s
				calls++
				prices++
				if s.bland {
					blands++
				}
				wantJ, wantDir := chuzcReference(s)
				if j != wantJ || dir != wantDir {
					t.Fatalf("LP %d (m=%d n=%d), choice %d: tree picked (%d, %g), scan picks (%d, %g)",
						iter, m, n, calls, j, dir, wantJ, wantDir)
				}
				if wantW != nil {
					for c, w := range wantW {
						if got := s.ddw[2*c+1]; got != w {
							t.Fatalf("LP %d, choice %d: column %d has Devex weight %g, reference %g",
								iter, calls, c, got, w)
						}
					}
					wantW = nil
				}
				heavy := 0
				for c := 0; c < s.total; c++ {
					if s.state[c] != stBasic && s.ddw[2*c+1] > devexResetWeight {
						heavy++
					}
					if got, want := s.score[c], s.chuzcScore(c); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("LP %d, choice %d: column %d scored %g, want %g", iter, calls, c, got, want)
					}
				}
				if heavy != s.nHeavy {
					t.Fatalf("LP %d, choice %d: nHeavy %d, recount %d", iter, calls, s.nHeavy, heavy)
				}
				for i, x := range s.rho {
					if math.Float64bits(x) != 0 {
						t.Fatalf("LP %d, choice %d: rho[%d] = %g between pivots, want +0", iter, calls, i, x)
					}
				}
				if !s.wDense {
					written := make(map[int]bool, len(s.wOut))
					for _, i := range s.wOut {
						written[i] = true
					}
					for i, x := range s.w {
						if !written[i] && math.Float64bits(x) != 0 {
							t.Fatalf("LP %d, choice %d: w[%d] = %g outside the reported support", iter, calls, i, x)
						}
					}
				}
				// Force the rarely reached modes for the next choice:
				// Bland's rule, a cost perturbation, or a Devex weight past
				// the reset threshold (what a tiny pivot element produces)
				// on a bystander or on the column about to enter.
				heavyAt := -1
				switch {
				case calls%11 == 5:
					s.bland = true
				case calls%17 == 8 && s.nPerturb < maxPerturb:
					s.perturb()
					perturbs++
				case calls%19 == 7 && j >= 0:
					heavyAt = j
				case calls%23 == 11:
					// Reduced-cost drift: a column that cannot improve the
					// objective looks attractive until the FTran corrects it.
					for c := calls % s.total; c < s.total; c++ {
						if s.state[c] == stLower && s.lb(c) != s.ub(c) && s.ddw[2*c] >= 0 {
							s.ddw[2*c] = -1e6
							s.rescore(c)
							drifts++
							break
						}
					}
				case calls%13 == 3:
					for c := calls % s.total; c < s.total; c++ {
						if s.state[c] != stBasic {
							heavyAt = c
							break
						}
					}
				}
				if heavyAt >= 0 && s.ddw[2*heavyAt+1] <= devexResetWeight {
					s.ddw[2*heavyAt+1] = 10 * devexResetWeight
					s.nHeavy++
					s.rescore(heavyAt)
					heavies++
				}
			},
			pivot: func(enter, leave int) {
				if leave < 0 {
					flips++
					return
				}
				var reset bool
				wantW, reset = devexReference(cur, enter, cur.inRow[leave])
				if reset {
					resets++
				}
			},
		}
		sol, err := Solve(context.Background(), p, Options{hooks: h, MaxIter: 20000})
		if err != nil {
			t.Fatalf("LP %d: %v", iter, err)
		}
		if sol.Status == Optimal {
			res := make([]float64, p.A.Rows)
			p.A.MulVec(sol.X, res)
			for i := range res {
				if math.Abs(res[i]-p.B[i]) > 1e-6*(1+math.Abs(p.B[i])) {
					t.Fatalf("LP %d: optimal point violates row %d: %g vs %g", iter, i, res[i], p.B[i])
				}
			}
		}
	}
	if flips == 0 || blands == 0 || perturbs == 0 || heavies == 0 || resets == 0 || drifts == 0 {
		t.Fatalf("sweep missed a mode: %d bound flips, %d Bland choices, %d perturbations, %d heavy weights, %d resets, %d drifts",
			flips, blands, perturbs, heavies, resets, drifts)
	}
	t.Logf("%d choices checked: %d bound flips, %d Bland choices, %d perturbations, %d heavy weights, %d resets, %d drifts",
		prices, flips, blands, perturbs, heavies, resets, drifts)
}

// TestUnsortedColumnsSolveLikeSorted: a constraint matrix whose columns
// list their rows out of order is normalized before the solve, so it
// takes exactly the pivots of the same LP built through sparse.Builder.
func TestUnsortedColumnsSolveLikeSorted(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sorted := sparseMixedLP(r, 70, 150, 4)
	a := sorted.A
	shuffled := &sparse.Matrix{
		Rows:   a.Rows,
		Cols:   a.Cols,
		ColPtr: append([]int(nil), a.ColPtr...),
		RowIdx: append([]int(nil), a.RowIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
	for j := 0; j < a.Cols; j++ {
		lo, hi := a.ColPtr[j], a.ColPtr[j+1]
		for k, l := lo, hi-1; k < l; k, l = k+1, l-1 { // reverse each column
			shuffled.RowIdx[k], shuffled.RowIdx[l] = shuffled.RowIdx[l], shuffled.RowIdx[k]
			shuffled.Val[k], shuffled.Val[l] = shuffled.Val[l], shuffled.Val[k]
		}
	}
	if strictlyAscending(shuffled) {
		t.Fatal("fixture has no out-of-order column")
	}
	unsorted := *sorted
	unsorted.A = shuffled
	trace := func(p *Problem) (*Solution, [][2]int) {
		var steps [][2]int
		h := &testHooks{pivot: func(e, l int) { steps = append(steps, [2]int{e, l}) }}
		sol, err := Solve(context.Background(), p, Options{hooks: h})
		if err != nil {
			t.Fatal(err)
		}
		return sol, steps
	}
	want, wantSteps := trace(sorted)
	if len(wantSteps) == 0 {
		t.Fatal("fixture solved without a pivot")
	}
	got, gotSteps := trace(&unsorted)
	if len(gotSteps) != len(wantSteps) || got.Iterations != want.Iterations ||
		math.Float64bits(got.Obj) != math.Float64bits(want.Obj) {
		t.Fatalf("unsorted columns: %d steps, %d iterations, obj %v; sorted: %d, %d, %v",
			len(gotSteps), got.Iterations, got.Obj, len(wantSteps), want.Iterations, want.Obj)
	}
	for k := range gotSteps {
		if gotSteps[k] != wantSteps[k] {
			t.Fatalf("step %d: unsorted %v, sorted %v", k, gotSteps[k], wantSteps[k])
		}
	}
	if shuffled.RowIdx[a.ColPtr[0]] != a.RowIdx[a.ColPtr[1]-1] {
		t.Fatal("the solve modified the caller's matrix")
	}
}
