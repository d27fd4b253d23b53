// Package lu implements a sparse LU factorization with partial
// pivoting using the Gilbert–Peierls left-looking algorithm. It is the
// basis-factorization engine for the revised simplex solver in
// internal/simplex, standing in for the proprietary LP solver the
// paper uses (Gurobi).
//
// The factorization computes P·B·Q = L·U where P is a row permutation
// chosen by partial pivoting, Q is a static column permutation chosen
// for sparsity (columns ordered by increasing nonzero count), L is
// unit lower triangular and U is upper triangular. Solves with B and
// Bᵀ are provided against dense right-hand sides.
//
// Pivoting is strict partial pivoting by default (each column pivots
// on its largest-magnitude candidate). SetRelPivotTol relaxes that to
// threshold pivoting: any candidate within a factor τ of the column
// leader is admissible and the sparsest admissible row wins, trading a
// bounded amount of stability (per-step element growth ≤ 1/τ, further
// capped by SetGrowthLimit) for less fill. Growth reports the largest
// per-step growth actually incurred. FactorDeficient is the repair
// entry point: instead of failing on a pivotless column it records the
// dependent columns and unpivoted rows so a caller (the simplex basis
// repair) can swap the offenders out and refactorize.
package lu

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/sparse"
)

// ErrSingular is returned (wrapped) when no acceptable pivot exists in
// some column, i.e. the matrix is singular or numerically so.
var ErrSingular = errors.New("lu: matrix is singular")

// DefaultPivotTol is the absolute magnitude below which a candidate
// pivot is considered zero.
const DefaultPivotTol = 1e-10

// Factorization holds the L and U factors and the permutations.
// A Factorization can be reused: calling Factor again reuses the
// internal workspace.
type Factorization struct {
	n int

	// L: unit lower triangular, stored by column in pivot order.
	// Row indices are ORIGINAL row ids; the unit diagonal is implicit.
	lColPtr []int
	lRowIdx []int
	lVal    []float64

	// U: upper triangular in pivot coordinates, stored by column.
	// Row indices are pivot positions k ≤ j; the diagonal is stored
	// separately in uDiag.
	uColPtr []int
	uRowIdx []int
	uVal    []float64
	uDiag   []float64

	p    []int // p[k] = original row pivoted at step k
	pinv []int // pinv[origRow] = pivot step, or -1 during factorization
	q    []int // q[k] = original column eliminated at step k

	// workspace
	x     []float64
	xi    []int // topological order stack
	stack []int // DFS stack (node)
	pstk  []int // DFS stack (position within column)
	mark  []bool

	// Transposed adjacency of the factors, built lazily per Factor for
	// the sparse-RHS transpose solve (see SolveTranspose): uRow lists,
	// for pivot position k, the pivot columns j > k with U[k,j] ≠ 0;
	// lRow lists, for pivot position m, the columns k < m whose L column
	// contains original row p[m].
	transOK bool
	uRowPtr []int32
	uRowCol []int32
	lRowPtr []int32
	lRowCol []int32
	patBuf  []int
	ordBuf  []int
	outBuf  []int    // output support of the last sparse solve
	idxSet  []uint64 // n-bit scratch for sparse.SortIndices, all zero between uses
	cntBuf  []int
	qinv    []int

	pivotTol    float64
	relPivotTol float64 // threshold-pivoting τ ∈ (0,1]; 1 = strict partial
	growthLimit float64 // per-step growth cap for τ < 1 picks; 0 = 1/τ only
	growth      float64 // largest per-step growth of the last factorization
	rowCnt      []int   // static row nonzero counts (τ < 1 only)
	ordCols     []int   // static elimination order (column ids)
	// complete reports whether the stored factors describe a full-rank
	// factorization usable by the solves: true after a successful
	// Factor, false after an error or a deficient FactorDeficient.
	complete bool
	// factors counts Factor calls over this object's lifetime
	// (successful or not) — the simplex layer exports it as a telemetry
	// counter, since each call is one full refactorization's work.
	factors int
}

// New returns a Factorization sized for n×n matrices with the default
// pivot tolerance and strict partial pivoting.
func New(n int) *Factorization {
	f := &Factorization{pivotTol: DefaultPivotTol, relPivotTol: 1}
	f.resize(n)
	return f
}

// SetPivotTol overrides the singularity threshold. The tolerance is
// read once at the start of each Factor/FactorDeficient call, so a new
// value takes effect at the next factorization and never retroactively
// changes an already-computed one (or the solves performed with it).
// Panics on a negative or NaN tolerance.
func (f *Factorization) SetPivotTol(tol float64) {
	if math.IsNaN(tol) || tol < 0 {
		panic(fmt.Sprintf("lu: invalid pivot tolerance %v", tol))
	}
	f.pivotTol = tol
}

// PivotTol reports the singularity threshold the next factorization
// will use.
func (f *Factorization) PivotTol() float64 { return f.pivotTol }

// SetRelPivotTol sets the threshold-pivoting parameter τ ∈ (0, 1]:
// a column may pivot on any candidate row whose magnitude is at least
// τ times the column's largest, and among admissible rows the one with
// the fewest nonzeros in the original matrix (a Markowitz-style fill
// proxy) is chosen. τ = 1 (the default) is strict partial pivoting —
// the largest-magnitude candidate always wins, reproducing the
// historical pivot choice exactly. Smaller τ trades stability for
// sparsity; per-step element growth is bounded by 1/τ. Like
// SetPivotTol, the value is read at the start of the next
// factorization. Panics unless 0 < τ ≤ 1.
func (f *Factorization) SetRelPivotTol(tau float64) {
	if !(tau > 0 && tau <= 1) {
		panic(fmt.Sprintf("lu: relative pivot tolerance %v outside (0,1]", tau))
	}
	f.relPivotTol = tau
}

// SetGrowthLimit caps the per-step element growth a τ < 1 sparsity
// pick may incur: when the sparsest admissible candidate would grow
// elements by more than g (columnMax/|pivot| > g), the column falls
// back to its largest-magnitude candidate. 0 (the default) disables
// the extra cap, leaving the 1/τ bound from SetRelPivotTol. The limit
// has no effect under strict partial pivoting (τ = 1, growth 1).
func (f *Factorization) SetGrowthLimit(g float64) {
	if math.IsNaN(g) || g < 0 {
		panic(fmt.Sprintf("lu: invalid growth limit %v", g))
	}
	f.growthLimit = g
}

// Growth reports the largest per-step element growth
// (columnMax/|pivot|) incurred by the last factorization: exactly 1
// under strict partial pivoting, up to 1/τ under threshold pivoting.
func (f *Factorization) Growth() float64 { return f.growth }

// N reports the dimension of the factorized matrix.
func (f *Factorization) N() int { return f.n }

// LNnz reports the number of off-diagonal nonzeros stored in L.
func (f *Factorization) LNnz() int { return len(f.lRowIdx) }

// UNnz reports the number of nonzeros stored in U including diagonal.
func (f *Factorization) UNnz() int { return len(f.uRowIdx) + f.n }

// Factors reports how many times Factor ran on this object.
func (f *Factorization) Factors() int { return f.factors }

func (f *Factorization) resize(n int) {
	f.n = n
	f.lColPtr = grow(f.lColPtr, n+1)
	f.uColPtr = grow(f.uColPtr, n+1)
	f.uDiag = growF(f.uDiag, n)
	f.p = grow(f.p, n)
	f.pinv = grow(f.pinv, n)
	f.q = grow(f.q, n)
	f.qinv = grow(f.qinv, n)
	f.x = growF(f.x, n)
	f.xi = grow(f.xi, n)
	f.stack = grow(f.stack, n)
	f.pstk = grow(f.pstk, n)
	if cap(f.mark) < n {
		f.mark = make([]bool, n)
	}
	f.mark = f.mark[:n]
	if words := (n + 63) / 64; len(f.idxSet) != words {
		f.idxSet = make([]uint64, words)
	}
}

func grow(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Factor computes the LU factorization of the square matrix m.
// It returns an error wrapping ErrSingular when a column admits no
// pivot above the tolerance; the error reports the elimination step,
// the offending column, and the best rejected candidate's magnitude.
func (f *Factorization) Factor(m *sparse.Matrix) error {
	_, _, err := f.factor(m, false)
	return err
}

// FactorDeficient factors m like Factor but, instead of failing on a
// column with no pivot above the tolerance, skips the column, records
// it, and keeps eliminating the rest. It returns the dependent
// (unpivotable) original column ids and the original rows left without
// a pivot, both ascending; the two lists always have equal length.
// Empty lists mean the factorization completed and is usable exactly
// as after a successful Factor. Otherwise the stored factors are
// partial — the solves will panic — and the caller is expected to
// replace the dependent columns (e.g. the simplex basis repair swaps
// them for unit columns on the unpivoted rows) and factorize again.
func (f *Factorization) FactorDeficient(m *sparse.Matrix) (cols, rows []int, err error) {
	return f.factor(m, true)
}

func (f *Factorization) factor(m *sparse.Matrix, collect bool) (defCols, defRows []int, err error) {
	if m.Rows != m.Cols {
		return nil, nil, fmt.Errorf("lu: matrix is %dx%d, want square", m.Rows, m.Cols)
	}
	n := m.Rows
	f.factors++
	f.resize(n)
	f.transOK = false
	f.complete = false
	f.growth = 1
	f.lRowIdx = f.lRowIdx[:0]
	f.lVal = f.lVal[:0]
	f.uRowIdx = f.uRowIdx[:0]
	f.uVal = f.uVal[:0]
	for i := 0; i < n; i++ {
		f.pinv[i] = -1
		f.qinv[i] = -1
		f.x[i] = 0
		f.mark[i] = false
	}

	// Static column order: increasing nonzero count. Ties broken by
	// index for determinism — a stable counting sort over the nonzero
	// counts, producing exactly the (count, index) order the previous
	// sort.SliceStable produced without the comparison-sort overhead.
	ord := grow(f.ordCols, n)
	f.ordCols = ord
	maxNnz := 0
	for j := 0; j < n; j++ {
		if c := m.ColNnz(j); c > maxNnz {
			maxNnz = c
		}
	}
	cnt := grow(f.cntBuf, maxNnz+2)
	f.cntBuf = cnt
	for i := range cnt {
		cnt[i] = 0
	}
	for j := 0; j < n; j++ {
		cnt[m.ColNnz(j)+1]++
	}
	for c := 1; c < len(cnt); c++ {
		cnt[c] += cnt[c-1]
	}
	for j := 0; j < n; j++ {
		c := m.ColNnz(j)
		ord[cnt[c]] = j
		cnt[c]++
	}

	// Static row nonzero counts, the fill proxy threshold pivoting
	// ranks admissible candidates by. Strict partial pivoting (τ = 1)
	// never consults them.
	tau := f.relPivotTol
	if tau < 1 {
		f.rowCnt = grow(f.rowCnt, n)
		for i := range f.rowCnt {
			f.rowCnt[i] = 0
		}
		for _, i := range m.RowIdx {
			f.rowCnt[i]++
		}
	}

	step := 0 // pivots assigned so far; == column index unless deficient
	for j := 0; j < n; j++ {
		c := ord[j]
		bIdx, bVal := m.Col(c)

		// Symbolic: compute the reach of the column pattern through
		// the graph of L (iterative DFS, reverse-postorder into xi).
		top := f.reach(bIdx)

		// Numeric: scatter b, then eliminate in topological order.
		for _, i := range bIdx {
			f.x[i] = 0
		}
		for p := top; p < n; p++ {
			f.x[f.xi[p]] = 0
		}
		for k, i := range bIdx {
			f.x[i] += bVal[k]
		}
		for p := top; p < n; p++ {
			i := f.xi[p]
			k := f.pinv[i]
			if k < 0 {
				continue
			}
			xi := f.x[i]
			if xi == 0 {
				continue
			}
			lo, hi := f.lColPtr[k], f.lColPtr[k+1]
			for t := lo; t < hi; t++ {
				f.x[f.lRowIdx[t]] -= f.lVal[t] * xi
			}
		}

		// Pivot: the largest magnitude among rows not yet pivotal.
		piv := -1
		var pivAbs float64
		for p := top; p < n; p++ {
			i := f.xi[p]
			if f.pinv[i] >= 0 {
				continue
			}
			if a := math.Abs(f.x[i]); a > pivAbs {
				pivAbs = a
				piv = i
			}
		}
		if piv < 0 || pivAbs <= f.pivotTol {
			f.clearColumn(top)
			if collect {
				defCols = append(defCols, c)
				continue
			}
			return nil, nil, fmt.Errorf("lu: step %d (column %d, best candidate %.3g vs tolerance %.3g): %w",
				j, c, pivAbs, f.pivotTol, ErrSingular)
		}
		colMax := pivAbs
		if tau < 1 {
			// Threshold pivoting: any candidate within τ of the column
			// leader is admissible; take the one on the sparsest row
			// (static Markowitz proxy), first-in-reach-order on ties,
			// unless the growth cap says it is too small after all.
			thresh := tau * colMax
			best, bestCnt := piv, f.rowCnt[piv]
			for p := top; p < n; p++ {
				i := f.xi[p]
				if f.pinv[i] >= 0 || i == piv {
					continue
				}
				if a := math.Abs(f.x[i]); a >= thresh && f.rowCnt[i] < bestCnt {
					best, bestCnt = i, f.rowCnt[i]
				}
			}
			if f.growthLimit > 0 && colMax > f.growthLimit*math.Abs(f.x[best]) {
				best = piv
			}
			piv = best
			pivAbs = math.Abs(f.x[piv])
		}
		if g := colMax / pivAbs; g > f.growth {
			f.growth = g
		}
		pivVal := f.x[piv]
		f.pinv[piv] = step
		f.p[step] = piv
		f.q[step] = c
		f.qinv[c] = step
		f.uDiag[step] = pivVal

		// Split the work vector into U (pivotal rows) and L
		// (remaining rows, scaled by the pivot).
		for p := top; p < n; p++ {
			i := f.xi[p]
			f.mark[i] = false
			v := f.x[i]
			f.x[i] = 0
			if i == piv || v == 0 {
				continue
			}
			if k := f.pinv[i]; k >= 0 && k < step {
				f.uRowIdx = append(f.uRowIdx, k)
				f.uVal = append(f.uVal, v)
			} else {
				f.lRowIdx = append(f.lRowIdx, i)
				f.lVal = append(f.lVal, v/pivVal)
			}
		}
		step++
		f.lColPtr[step] = len(f.lRowIdx)
		f.uColPtr[step] = len(f.uRowIdx)
	}
	if len(defCols) > 0 {
		for i := 0; i < n; i++ {
			if f.pinv[i] < 0 {
				defRows = append(defRows, i)
			}
		}
		slices.Sort(defCols)
		return defCols, defRows, nil
	}
	f.complete = true
	return nil, nil, nil
}

// checkComplete guards the solves against a factorization that failed
// or came back rank-deficient from FactorDeficient: its partial
// factors would silently produce garbage.
func (f *Factorization) checkComplete() {
	if !f.complete {
		panic("lu: solve on an incomplete (failed or deficient) factorization")
	}
}

// clearColumn resets marks and x after a failed pivot so the
// factorization object stays reusable.
func (f *Factorization) clearColumn(top int) {
	for p := top; p < f.n; p++ {
		i := f.xi[p]
		f.mark[i] = false
		f.x[i] = 0
	}
}

// reach performs an iterative DFS from the rows in pattern through the
// graph of L, storing a reverse postorder in xi[top:n] and returning
// top. Visited nodes remain marked; the caller resets marks.
func (f *Factorization) reach(pattern []int) int {
	top := f.n
	for _, root := range pattern {
		if f.mark[root] {
			continue
		}
		// Iterative DFS with an explicit (node, position) stack.
		depth := 0
		f.stack[0] = root
		f.pstk[0] = 0
		f.mark[root] = true
		for depth >= 0 {
			i := f.stack[depth]
			k := f.pinv[i]
			done := true
			if k >= 0 {
				lo, hi := f.lColPtr[k], f.lColPtr[k+1]
				for t := lo + f.pstk[depth]; t < hi; t++ {
					r := f.lRowIdx[t]
					if f.mark[r] {
						continue
					}
					// Descend into r; remember resume position.
					f.pstk[depth] = t - lo + 1
					depth++
					f.stack[depth] = r
					f.pstk[depth] = 0
					f.mark[r] = true
					done = false
					break
				}
			}
			if done {
				top--
				f.xi[top] = i
				depth--
			}
		}
	}
	return top
}

// ensureTranspose builds the row-major adjacency of U and L (pivot
// coordinates) used by the sparse transpose solve. Rebuilt lazily after
// each Factor.
func (f *Factorization) ensureTranspose() {
	if f.transOK {
		return
	}
	n := f.n
	if cap(f.uRowPtr) < n+1 {
		f.uRowPtr = make([]int32, n+1)
		f.lRowPtr = make([]int32, n+1)
	}
	f.uRowPtr = f.uRowPtr[:n+1]
	f.lRowPtr = f.lRowPtr[:n+1]
	for i := range f.uRowPtr {
		f.uRowPtr[i] = 0
		f.lRowPtr[i] = 0
	}
	for _, k := range f.uRowIdx {
		f.uRowPtr[k+1]++
	}
	for _, i := range f.lRowIdx {
		f.lRowPtr[f.pinv[i]+1]++
	}
	for k := 0; k < n; k++ {
		f.uRowPtr[k+1] += f.uRowPtr[k]
		f.lRowPtr[k+1] += f.lRowPtr[k]
	}
	if cap(f.uRowCol) < len(f.uRowIdx) {
		f.uRowCol = make([]int32, len(f.uRowIdx))
	}
	f.uRowCol = f.uRowCol[:len(f.uRowIdx)]
	if cap(f.lRowCol) < len(f.lRowIdx) {
		f.lRowCol = make([]int32, len(f.lRowIdx))
	}
	f.lRowCol = f.lRowCol[:len(f.lRowIdx)]
	next := f.xi // free between solves
	for k := 0; k < n; k++ {
		next[k] = int(f.uRowPtr[k])
	}
	for j := 0; j < n; j++ {
		for t := f.uColPtr[j]; t < f.uColPtr[j+1]; t++ {
			k := f.uRowIdx[t]
			f.uRowCol[next[k]] = int32(j)
			next[k]++
		}
	}
	for k := 0; k < n; k++ {
		next[k] = int(f.lRowPtr[k])
	}
	for j := 0; j < n; j++ {
		for t := f.lColPtr[j]; t < f.lColPtr[j+1]; t++ {
			m := f.pinv[f.lRowIdx[t]]
			f.lRowCol[next[m]] = int32(j)
			next[m]++
		}
	}
	f.transOK = true
}

// reachGraph is reach over an explicit adjacency (ptr/adj in pivot
// coordinates): DFS from roots, reverse postorder into xi[top:n]. In
// that order every node precedes the nodes reachable from it, so
// dependents come after their dependencies. Visited nodes stay marked;
// the caller clears marks.
func (f *Factorization) reachGraph(roots []int, ptr, adj []int32) int {
	top := f.n
	for _, root := range roots {
		if f.mark[root] {
			continue
		}
		depth := 0
		f.stack[0] = root
		f.pstk[0] = 0
		f.mark[root] = true
		for depth >= 0 {
			i := f.stack[depth]
			lo, hi := int(ptr[i]), int(ptr[i+1])
			done := true
			for t := lo + f.pstk[depth]; t < hi; t++ {
				r := int(adj[t])
				if f.mark[r] {
					continue
				}
				f.pstk[depth] = t - lo + 1
				depth++
				f.stack[depth] = r
				f.pstk[depth] = 0
				f.mark[r] = true
				done = false
				break
			}
			if done {
				top--
				f.xi[top] = i
				depth--
			}
		}
	}
	return top
}

// Solve computes x with B·x = b. b and x have length n and may alias.
//
// When x aliases b and b is sparse, the solve restricts itself to the
// reach of b's pattern through the factors, processing reached rows in
// the dense passes' own order (ascending pivot position forward,
// descending backward) — identical floats up to structural-zero signs.
func (f *Factorization) Solve(b, x []float64) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("lu: Solve dimension mismatch")
	}
	f.checkComplete()
	if n >= 64 && &x[0] == &b[0] {
		pat := f.patBuf[:0]
		for i := 0; i < n && len(pat) <= n/8; i++ {
			if b[i] != 0 {
				pat = append(pat, i)
			}
		}
		f.patBuf = pat
		if len(pat) <= n/8 {
			f.solveSparse(b, x, pat)
			return
		}
	}
	f.solveDense(b, x)
}

// SolveSupp is Solve for a caller that already knows a superset of b's
// nonzero pattern: supp lists original indices, ascending, and every
// entry of b outside supp is exactly zero. The pattern is filtered to
// the actual nonzeros, so the solve path and result match Solve's.
//
// SolveSupp also reports the support of the result. When the sparse
// path ran, sparse is true and out lists, in no particular order, every
// position the solve wrote a result to. The input's nonzeros are set to
// +0 first, and every other position keeps its (zero) input value, so
// out is a superset of x's nonzeros. When the dense path ran, sparse is
// false, out is nil, and any position may be nonzero. out aliases
// workspace that the next solve overwrites.
func (f *Factorization) SolveSupp(b, x []float64, supp []int) (out []int, sparse bool) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("lu: Solve dimension mismatch")
	}
	f.checkComplete()
	if n >= 64 && &x[0] == &b[0] {
		pat := f.patBuf[:0]
		for _, i := range supp {
			if b[i] != 0 {
				pat = append(pat, i)
			}
		}
		f.patBuf = pat
		if len(pat) <= n/8 {
			return f.solveSparse(b, x, pat), true
		}
	}
	f.solveDense(b, x)
	return nil, false
}

func (f *Factorization) solveDense(b, x []float64) {
	n := f.n
	z := f.x // reuse workspace; zeroed on exit of Factor and solves
	// Forward: L z = P b, z indexed by pivot position.
	for k := 0; k < n; k++ {
		z[k] = b[f.p[k]]
	}
	for k := 0; k < n; k++ {
		zk := z[k]
		if zk == 0 {
			continue
		}
		lo, hi := f.lColPtr[k], f.lColPtr[k+1]
		for t := lo; t < hi; t++ {
			z[f.pinv[f.lRowIdx[t]]] -= f.lVal[t] * zk
		}
	}
	// Backward: U w = z, then scatter through the column permutation.
	for j := n - 1; j >= 0; j-- {
		zj := z[j]
		if zj == 0 {
			// The quotient would be ±0; leaving the stored +0 differs
			// only in the sign of a zero.
			continue
		}
		wj := zj / f.uDiag[j]
		z[j] = wj
		if wj == 0 {
			continue
		}
		lo, hi := f.uColPtr[j], f.uColPtr[j+1]
		for t := lo; t < hi; t++ {
			z[f.uRowIdx[t]] -= f.uVal[t] * wj
		}
	}
	// x[q[j]] = w_j. All of b was read in the forward pass, so writing
	// x is safe even when x aliases b. Clear the workspace as we go.
	for j := n - 1; j >= 0; j-- {
		x[f.q[j]] = z[j]
		z[j] = 0
	}
}

// solveSparse is the sparse-pattern solve: pat lists the original rows
// i with b[i] ≠ 0, ascending. x aliases b. It returns the positions of
// x it wrote (SolveSupp's out); the input positions it cleared hold +0.
func (f *Factorization) solveSparse(b, x []float64, pat []int) []int {
	n := f.n
	z := f.x
	// Forward reach through L (original-row space, as in Factor), then
	// eliminate in ascending pivot order — the dense pass's order, so
	// every scatter target accumulates its contributions in the same
	// sequence. Untouched rows hold the exact zeros the dense pass
	// would compute. Reach sets hold distinct positions, so sorting
	// them through a bitset gives the one ascending order a comparison
	// sort would, in time linear in the set plus n/64.
	top := f.reach(pat)
	ord := f.ordBuf[:0]
	for p := top; p < n; p++ {
		i := f.xi[p]
		f.mark[i] = false
		ord = append(ord, f.pinv[i])
	}
	ord = sparse.SortIndices(ord, f.idxSet)
	for _, i := range pat {
		z[f.pinv[i]] = b[i]
	}
	for _, k := range ord {
		zk := z[k]
		if zk == 0 {
			continue
		}
		lo, hi := f.lColPtr[k], f.lColPtr[k+1]
		for t := lo; t < hi; t++ {
			z[f.pinv[f.lRowIdx[t]]] -= f.lVal[t] * zk
		}
	}
	// Backward through U: the forward result's structural nonzeros seed
	// a reach over U's column graph (column j scatters into pivot rows
	// k < j); walking it in descending order again matches the dense
	// pass.
	top = f.reachU(ord)
	ord2 := ord[:0] // forward order no longer needed; reuse the buffer
	for p := top; p < n; p++ {
		j := f.xi[p]
		f.mark[j] = false
		ord2 = append(ord2, j)
	}
	ord2 = sparse.SortIndices(ord2, f.idxSet)
	for t := len(ord2) - 1; t >= 0; t-- {
		j := ord2[t]
		zj := z[j]
		if zj == 0 {
			continue
		}
		wj := zj / f.uDiag[j]
		z[j] = wj
		if wj == 0 {
			continue
		}
		lo, hi := f.uColPtr[j], f.uColPtr[j+1]
		for t := lo; t < hi; t++ {
			z[f.uRowIdx[t]] -= f.uVal[t] * wj
		}
	}
	// Output: clear the input nonzeros (x aliases b), scatter results,
	// restore the zero workspace invariant.
	for _, i := range pat {
		x[i] = 0
	}
	out := f.outBuf[:0]
	for _, j := range ord2 {
		x[f.q[j]] = z[j]
		z[j] = 0
		out = append(out, f.q[j])
	}
	f.ordBuf, f.outBuf = ord2, out
	return out
}

// reachU is reach over U's column graph in pivot coordinates: DFS from
// roots (pivot positions), successors of j are the pivot rows of U's
// column j. Reverse postorder into xi[top:n]; caller clears marks.
func (f *Factorization) reachU(roots []int) int {
	top := f.n
	for _, root := range roots {
		if f.mark[root] {
			continue
		}
		depth := 0
		f.stack[0] = root
		f.pstk[0] = 0
		f.mark[root] = true
		for depth >= 0 {
			j := f.stack[depth]
			lo, hi := f.uColPtr[j], f.uColPtr[j+1]
			done := true
			for t := lo + f.pstk[depth]; t < hi; t++ {
				r := f.uRowIdx[t]
				if f.mark[r] {
					continue
				}
				f.pstk[depth] = t - lo + 1
				depth++
				f.stack[depth] = r
				f.pstk[depth] = 0
				f.mark[r] = true
				done = false
				break
			}
			if done {
				top--
				f.xi[top] = j
				depth--
			}
		}
	}
	return top
}

// SolveTranspose computes x with Bᵀ·x = b. b and x have length n and
// may alias.
//
// When x aliases b and b is sparse, the solve restricts itself to the
// reach of b's pattern through the transposed factors: rows outside the
// reach are structurally zero, and rows inside keep the exact gather
// the dense path performs (same entries, same order), so the result is
// bit-identical up to the sign of structural zeros.
func (f *Factorization) SolveTranspose(b, x []float64) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("lu: SolveTranspose dimension mismatch")
	}
	f.checkComplete()
	if n >= 64 && &x[0] == &b[0] {
		pat := f.patBuf[:0]
		for j := 0; j < n && len(pat) <= n/8; j++ {
			if b[f.q[j]] != 0 {
				pat = append(pat, j)
			}
		}
		f.patBuf = pat
		if len(pat) <= n/8 {
			f.solveTransposeSparse(b, x, pat)
			return
		}
	}
	f.solveTransposeDense(b, x)
}

// SolveTransposeSupp is SolveTranspose for a caller that already knows
// a superset of b's nonzero pattern: supp lists original indices (any
// order) and every entry of b outside supp is exactly zero. The pattern
// is filtered to the actual nonzeros — the same set SolveTranspose's
// scan finds — and root order does not affect the computed values, so
// the result matches SolveTranspose's. It reports the support of the
// result exactly as SolveSupp does.
func (f *Factorization) SolveTransposeSupp(b, x []float64, supp []int) (out []int, sparse bool) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("lu: SolveTranspose dimension mismatch")
	}
	f.checkComplete()
	if n >= 64 && &x[0] == &b[0] {
		pat := f.patBuf[:0]
		for _, i := range supp {
			if b[i] != 0 {
				pat = append(pat, f.qinv[i])
			}
		}
		f.patBuf = pat
		if len(pat) <= n/8 {
			return f.solveTransposeSparse(b, x, pat), true
		}
	}
	f.solveTransposeDense(b, x)
	return nil, false
}

func (f *Factorization) solveTransposeDense(b, x []float64) {
	n := f.n
	z := f.x
	// Uᵀ z = b', with b'_j = b[q[j]]. Uᵀ is lower triangular, so go
	// ascending; each step is a gather over U's column j.
	for j := 0; j < n; j++ {
		s := b[f.q[j]]
		lo, hi := f.uColPtr[j], f.uColPtr[j+1]
		for t := lo; t < hi; t++ {
			s -= f.uVal[t] * z[f.uRowIdx[t]]
		}
		z[j] = s / f.uDiag[j]
	}
	// Lᵀ w = z. Lᵀ is upper triangular (unit diagonal), go descending;
	// gather over L's column k, whose rows live strictly below k in
	// pivot order.
	for k := n - 1; k >= 0; k-- {
		s := z[k]
		lo, hi := f.lColPtr[k], f.lColPtr[k+1]
		for t := lo; t < hi; t++ {
			s -= f.lVal[t] * z[f.pinv[f.lRowIdx[t]]]
		}
		z[k] = s
	}
	// x[p[k]] = w_k.
	for k := n - 1; k >= 0; k-- {
		x[f.p[k]] = z[k]
	}
	// Clear workspace (x may alias b but never aliases f.x).
	for k := 0; k < n; k++ {
		z[k] = 0
	}
}

// solveTransposeSparse is the sparse-pattern transpose solve: pat lists
// the pivot positions j with b[q[j]] ≠ 0, ascending. x aliases b. It
// returns the positions of x it wrote, as solveSparse does.
func (f *Factorization) solveTransposeSparse(b, x []float64, pat []int) []int {
	n := f.n
	f.ensureTranspose()
	z := f.x
	// Uᵀ z = b' over the reach of the pattern, in topological order
	// (dependencies of a node are its DFS ancestors, stored earlier).
	// Each computed row keeps the dense path's full column gather —
	// untouched rows read as the exact zeros they are.
	topU := f.reachGraph(pat, f.uRowPtr, f.uRowCol)
	ord := f.ordBuf[:0]
	for p := topU; p < n; p++ {
		j := f.xi[p]
		f.mark[j] = false
		ord = append(ord, j)
		s := b[f.q[j]]
		lo, hi := f.uColPtr[j], f.uColPtr[j+1]
		for t := lo; t < hi; t++ {
			s -= f.uVal[t] * z[f.uRowIdx[t]]
		}
		z[j] = s / f.uDiag[j]
	}
	f.ordBuf = ord
	// Lᵀ w = z: the structural nonzeros of z seed a second reach, this
	// time downward (row k of Lᵀ reads rows m > k).
	topL := f.reachGraph(ord, f.lRowPtr, f.lRowCol)
	for p := topL; p < n; p++ {
		k := f.xi[p]
		s := z[k]
		lo, hi := f.lColPtr[k], f.lColPtr[k+1]
		for t := lo; t < hi; t++ {
			s -= f.lVal[t] * z[f.pinv[f.lRowIdx[t]]]
		}
		z[k] = s
	}
	// Output: clear the input nonzeros (x aliases b), then scatter the
	// computed rows and restore the zero workspace invariant.
	for _, j := range pat {
		x[f.q[j]] = 0
	}
	out := f.outBuf[:0]
	for p := topL; p < n; p++ {
		k := f.xi[p]
		f.mark[k] = false
		x[f.p[k]] = z[k]
		z[k] = 0
		out = append(out, f.p[k])
	}
	f.outBuf = out
	return out
}

// Residual returns ‖B·x − b‖∞ for diagnostics.
func Residual(m *sparse.Matrix, x, b []float64) float64 {
	y := make([]float64, m.Rows)
	m.MulVec(x, y)
	var worst float64
	for i := range y {
		if d := math.Abs(y[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}
