package simplex

import (
	"math"

	"repro/internal/lu"
	"repro/internal/sparse"
)

// basis maintains the basis matrix factorization for the revised
// simplex method: an LU factorization of the basis at the last
// refactorization plus a product-form (PFI) eta file for the pivots
// performed since.
type basis struct {
	m  int
	lu *lu.Factorization

	// Eta file. Eta k replaces column etaRow[k] of the basis with the
	// FTran'd entering column stored in etaIdx/etaVal[etaPtr[k]:etaPtr[k+1]].
	etaPtr []int
	etaRow []int
	etaIdx []int
	etaVal []float64

	work []float64 // scratch for building columns

	// Per-eta index bitmasks plus a support bitset scratch, used by the
	// sparse btran path to skip etas that provably leave v unchanged.
	// etaMask holds maskWords() words per eta, parallel to etaRow.
	// supWords lists the word indices where sup is nonzero, so the
	// intersection test touches only words that can hit.
	etaMask  []uint64
	sup      []uint64
	supWords []int32
	supIdx   []int

	// Support reports of the last ftranSupp and btranUnit.
	ftranOut []int
	btranOut []int
}

func newBasis(m int) *basis {
	return &basis{
		m:      m,
		lu:     lu.New(m),
		etaPtr: []int{0},
		work:   make([]float64, m),
	}
}

// etaCount reports the number of eta updates since the last refactorization.
func (b *basis) etaCount() int { return len(b.etaRow) }

// etaNnz reports the total stored eta nonzeros.
func (b *basis) etaNnz() int { return len(b.etaIdx) }

// maskWords is the per-eta bitmask length in words.
func (b *basis) maskWords() int { return (b.m + 63) / 64 }

// refactor rebuilds the LU factorization from the given basis columns.
// The caller (solver.refactor) wraps any error with solve context —
// phase, iteration, refactorization count.
func (b *basis) refactor(cols *sparse.Matrix) error {
	if err := b.lu.Factor(cols); err != nil {
		return err
	}
	b.etaPtr = b.etaPtr[:1]
	b.etaRow = b.etaRow[:0]
	b.etaIdx = b.etaIdx[:0]
	b.etaVal = b.etaVal[:0]
	b.etaMask = b.etaMask[:0]
	return nil
}

// deficiency diagnoses a basis matrix that refused to factorize: it
// reruns the elimination in repair mode and returns the dependent
// basis positions (columns of cols) and the rows left unpivoted. The
// factorization object is left incomplete either way; the caller must
// refactor() after swapping the offenders out.
func (b *basis) deficiency(cols *sparse.Matrix) (positions, rows []int, err error) {
	return b.lu.FactorDeficient(cols)
}

// pushEtaMask appends the index bitmask for the eta whose entries start
// at etaPtr position lo.
func (b *basis) pushEtaMask(lo int) {
	w := b.maskWords()
	n := len(b.etaMask)
	for i := 0; i < w; i++ {
		b.etaMask = append(b.etaMask, 0)
	}
	mask := b.etaMask[n:]
	for t := lo; t < len(b.etaIdx); t++ {
		i := b.etaIdx[t]
		mask[i>>6] |= 1 << (uint(i) & 63)
	}
}

// pushEta records a pivot that replaced basis position r with the
// FTran'd entering column w (dense, length m). Entries below dropTol
// are not stored, except w[r] which is always kept.
func (b *basis) pushEta(r int, w []float64, dropTol float64) {
	lo := len(b.etaIdx)
	for i, v := range w {
		if i == r || math.Abs(v) > dropTol {
			if v == 0 && i != r {
				continue
			}
			b.etaIdx = append(b.etaIdx, i)
			b.etaVal = append(b.etaVal, v)
		}
	}
	b.etaRow = append(b.etaRow, r)
	b.etaPtr = append(b.etaPtr, len(b.etaIdx))
	b.pushEtaMask(lo)
}

// pushEtaIdx is pushEta over an explicit nonzero index list (ascending,
// as the FTran scan produces): the same entries are stored in the same
// order — wIdx lists exactly the nonzero positions of w, and pushEta
// keeps a nonzero entry iff it is the pivot position or above dropTol —
// without rescanning the dense vector.
func (b *basis) pushEtaIdx(r int, w []float64, wIdx []int, dropTol float64) {
	lo := len(b.etaIdx)
	for _, i := range wIdx {
		v := w[i]
		if i == r || math.Abs(v) > dropTol {
			b.etaIdx = append(b.etaIdx, i)
			b.etaVal = append(b.etaVal, v)
		}
	}
	b.etaRow = append(b.etaRow, r)
	b.etaPtr = append(b.etaPtr, len(b.etaIdx))
	b.pushEtaMask(lo)
}

// ftran solves B·x = v in place (v is overwritten with the solution).
func (b *basis) ftran(v []float64) {
	b.lu.Solve(v, v)
	b.ftranEtas(v, nil, false)
}

// ftranSupp is ftran for a caller that knows a superset of v's nonzero
// pattern (ascending original indices; entries outside are exact zeros),
// letting the LU solve skip its pattern-discovery scan. Like
// lu.SolveSupp it reports where the result can be nonzero: when the LU
// solve ran sparse, ok is true and out lists (in any order, possibly
// repeated) every position written after the input's nonzeros were
// cleared to +0 — the LU output plus the index sets of the etas
// applied. When ok is false any position may be nonzero. out aliases a
// buffer the next call overwrites.
func (b *basis) ftranSupp(v []float64, supp []int) (out []int, ok bool) {
	lout, ok := b.lu.SolveSupp(v, v, supp)
	if !ok {
		b.ftranEtas(v, nil, false)
		return nil, false
	}
	b.ftranOut, ok = b.ftranEtas(v, append(b.ftranOut[:0], lout...), true)
	if !ok {
		return nil, false
	}
	return b.ftranOut, true
}

// ftranEtas applies the eta file to v. While tracking, the index set
// of every applied eta is appended to track; the append costs no more
// than the update itself. Once the list would outgrow m — repeats make
// it longer than the support, and a scan of v is then cheaper than
// sorting it — tracking stops. It returns track and whether tracking
// held to the end.
func (b *basis) ftranEtas(v []float64, track []int, tracking bool) ([]int, bool) {
	for k := 0; k < len(b.etaRow); k++ {
		r := b.etaRow[k]
		vr := v[r]
		if vr == 0 {
			continue
		}
		lo, hi := b.etaPtr[k], b.etaPtr[k+1]
		if tracking {
			if len(track)+hi-lo > b.m {
				tracking = false
			} else {
				track = append(track, b.etaIdx[lo:hi]...)
			}
		}
		// Find w_r first.
		var wr float64
		for t := lo; t < hi; t++ {
			if b.etaIdx[t] == r {
				wr = b.etaVal[t]
				break
			}
		}
		zr := vr / wr
		for t := lo; t < hi; t++ {
			i := b.etaIdx[t]
			if i == r {
				continue
			}
			v[i] -= b.etaVal[t] * zr
		}
		v[r] = zr
	}
	return track, tracking
}

// btran solves Bᵀ·y = v in place (v is overwritten with the solution).
func (b *basis) btran(v []float64) {
	if b.m >= 64 && len(b.etaRow) >= 4 && b.scanSupport(v) {
		b.btranSparse(v)
		return
	}
	for k := len(b.etaRow) - 1; k >= 0; k-- {
		r := b.etaRow[k]
		lo, hi := b.etaPtr[k], b.etaPtr[k+1]
		var dot float64
		var wr float64
		for t := lo; t < hi; t++ {
			i := b.etaIdx[t]
			if i == r {
				wr = b.etaVal[t]
				continue
			}
			dot += b.etaVal[t] * v[i]
		}
		v[r] = (v[r] - dot) / wr
	}
	b.lu.SolveTranspose(v, v)
}

// btranUnit is btran for v = e_seed (exactly one nonzero, at seed): the
// sparse path's support scan is replaced by the known singleton pattern,
// so it applies whenever the dimension gate passes, regardless of eta
// count. It reports where the result can be nonzero the way ftranSupp
// does: out lists every position written (the eta pass's rows plus the
// LU output), or ok is false when any position may be nonzero.
func (b *basis) btranUnit(v []float64, seed int) (out []int, ok bool) {
	if b.m < 64 {
		b.btran(v)
		return nil, false
	}
	sup := b.resetSupport()
	sup[seed>>6] |= 1 << (uint(seed) & 63)
	b.supWords = append(b.supWords, int32(seed>>6))
	b.supIdx = append(b.supIdx, seed)
	return b.btranSparse(v)
}

// resetSupport empties the support bitset and its word and index lists.
func (b *basis) resetSupport() []uint64 {
	words := b.maskWords()
	if cap(b.sup) < words {
		b.sup = make([]uint64, words)
	}
	b.sup = b.sup[:words]
	clear(b.sup)
	b.supWords = b.supWords[:0]
	b.supIdx = b.supIdx[:0]
	return b.sup
}

// scanSupport records v's nonzeros as the support for btranSparse. It
// reports false when v is too dense for the sparse path to pay off.
func (b *basis) scanSupport(v []float64) bool {
	sup := b.resetSupport()
	sw, si := b.supWords, b.supIdx
	for i, x := range v {
		if x != 0 {
			w := i >> 6
			if sup[w] == 0 {
				sw = append(sw, int32(w))
			}
			sup[w] |= 1 << (uint(i) & 63)
			si = append(si, i)
		}
	}
	b.supWords, b.supIdx = sw, si
	return len(si) <= b.m/8
}

// btranSparse is the eta pass for sparse v, followed by the LU
// transpose solve with the collected support: it tracks a superset of
// v's support (recorded by btranUnit or scanSupport) in a bitset and
// skips etas whose index set misses it while v[r] is zero — for those,
// the dot is a sum of exact zeros and the update would store
// (±0−±0)/w_r, so skipping changes only the sign of a zero. Non-skipped
// etas run the dense path's exact gather. It returns btranUnit's
// support report.
func (b *basis) btranSparse(v []float64) (out []int, ok bool) {
	words := b.maskWords()
	sup, sw, si := b.sup, b.supWords, b.supIdx
	for k := len(b.etaRow) - 1; k >= 0; k-- {
		r := b.etaRow[k]
		if v[r] == 0 {
			mask := b.etaMask[k*words:]
			hit := false
			for _, w := range sw {
				if mask[w]&sup[w] != 0 {
					hit = true
					break
				}
			}
			// The mask includes r itself, but v[r] == 0 means r's bit
			// cannot be the one that hit.
			if !hit {
				continue
			}
		}
		lo, hi := b.etaPtr[k], b.etaPtr[k+1]
		var dot float64
		var wr float64
		for t := lo; t < hi; t++ {
			i := b.etaIdx[t]
			if i == r {
				wr = b.etaVal[t]
				continue
			}
			dot += b.etaVal[t] * v[i]
		}
		v[r] = (v[r] - dot) / wr
		if bit := uint64(1) << (uint(r) & 63); sup[r>>6]&bit == 0 {
			if sup[r>>6] == 0 {
				sw = append(sw, int32(r>>6))
			}
			sup[r>>6] |= bit
			si = append(si, r)
		}
	}
	b.supWords, b.supIdx = sw, si
	// The collected indices are a superset of v's support (a processed
	// position may have landed on an exact zero); entries outside are
	// untouched zeros. The LU layer filters to actual nonzeros, so the
	// solve matches the plain SolveTranspose path. The rows the eta pass
	// wrote stay in the report: one may hold a zero of either sign.
	lout, ok := b.lu.SolveTransposeSupp(v, v, si)
	if !ok {
		return nil, false
	}
	b.btranOut = append(append(b.btranOut[:0], si...), lout...)
	return b.btranOut, true
}
