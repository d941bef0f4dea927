// Package lu implements a sparse LU factorization for the MNA systems the
// simulator solves at every Newton iteration. The algorithm is left-looking
// Gilbert–Peierls with threshold partial pivoting. Because every Jacobian of
// a transient run shares one sparsity pattern, the factorization records its
// symbolic structure (reach sets, pivot order, fill pattern) once and
// subsequent matrices are refactorized numerically in-place, which is where
// the simulator spends most of its solve time.
package lu

import (
	"errors"
	"fmt"
	"math"

	"masc/internal/sparse"
)

// ErrSingular is returned when no acceptable pivot exists for a column.
var ErrSingular = errors.New("lu: matrix is numerically singular")

// ErrPivotDegraded is returned by Refactor when the recorded pivot order has
// become numerically unusable; the caller should Factor afresh.
var ErrPivotDegraded = errors.New("lu: recorded pivot order degraded, refactor from scratch")

// refactorGrowthLimit bounds the L-entry magnitude Refactor accepts before
// declaring the recorded pivot order degraded. A fresh factorization with the
// default threshold τ=0.1 keeps |L| ≤ 10; letting reuse drift three decades
// beyond that trades at most ~4 digits for refactorization speed. Past it the
// pivot has genuinely collapsed — e.g. refactoring a DC Jacobian (diagonal
// gmin ≈ 1e-12 on capacitor-only nodes) with pivots recorded for a transient
// Jacobian (diagonal C/h) — and silent acceptance poisons every subsequent
// solve at far above roundoff.
const refactorGrowthLimit = 1e4

// DefaultPivotThreshold is the τ Factor uses when Options.PivotThreshold is
// zero. Journals record it as part of the numeric plan.
const DefaultPivotThreshold = 0.1

// Options configures a factorization.
type Options struct {
	// PivotThreshold τ ∈ (0,1]: the structurally "diagonal" row is kept as
	// pivot if its magnitude is at least τ times the column maximum.
	// Smaller values preserve the diagonal (and hence sparsity) more
	// aggressively. Zero means DefaultPivotThreshold.
	PivotThreshold float64
	// ColPerm is a fill-reducing column pre-ordering: column j of the
	// factorization is original column ColPerm[j]. Nil means natural order.
	ColPerm []int32
}

// LU holds both factors and the recorded symbolic structure.
type LU struct {
	n    int
	pat  *sparse.Pattern
	tau  float64
	q    []int32 // column order: factor col j == original col q[j]
	pinv []int32 // pinv[origRow] = pivot step, or the step it was pivoted at
	prow []int32 // prow[k] = original row pivoted at step k

	// L columns: original row indices; the implicit unit diagonal is NOT
	// stored. lrow holds original rows r with pinv[r] > k, in the DFS
	// topological order of column k's reach.
	lp   []int32
	lrow []int32
	lx   []float64
	// lpiv[k] is where column k's pivot row sat among its L entries in
	// that topological order: rows lrow[lp[k]:lpiv[k]] preceded it.
	// RefactorChecked replays Factor's argmax tie-breaking with it.
	lpiv []int32
	// lstep[p] = pinv[lrow[p]]: the pivot step of L entry p, so the
	// transpose solves index their pivot-step workspace directly.
	lstep []int32

	// U columns: pivot-step indices k < j in the DFS topological order of
	// column j's reach, the order Refactor applies their updates in;
	// diagonal in ud.
	up []int32
	uk []int32
	ux []float64
	ud []float64

	w    []float64 // workspace, len n, zero outside active reach
	mark []int32   // DFS visit stamp per original row
	tick int32
	stk  []int32 // DFS stack
	post []int32 // topological order buffer

	// Stride-k workspaces of the multi-RHS solves, grown on demand and
	// reused so repeated SolveMulti/SolveTMulti calls allocate nothing.
	mw []float64 // pivot-step-indexed (y / z)
	mb []float64 // original-row-indexed (permuted b)
}

// N returns the matrix dimension.
func (f *LU) N() int { return f.n }

// LNNZ and UNNZ report factor fill (excluding unit/diagonal entries).
func (f *LU) LNNZ() int { return len(f.lrow) }
func (f *LU) UNNZ() int { return len(f.uk) }

// Factor computes the LU factorization of a, choosing pivots, and records
// the symbolic structure for later Refactor calls.
func Factor(a *sparse.Matrix, opt Options) (*LU, error) {
	n := a.P.N
	tau := opt.PivotThreshold
	if tau == 0 {
		tau = DefaultPivotThreshold
	}
	q := opt.ColPerm
	if q == nil {
		q = make([]int32, n)
		for i := range q {
			q[i] = int32(i)
		}
	} else if len(q) != n {
		return nil, fmt.Errorf("lu: column permutation length %d, want %d", len(q), n)
	}
	f := &LU{
		n:    n,
		pat:  a.P,
		tau:  tau,
		q:    q,
		pinv: make([]int32, n),
		prow: make([]int32, n),
		lp:   make([]int32, 1, n+1),
		lpiv: make([]int32, 0, n),
		up:   make([]int32, 1, n+1),
		ud:   make([]float64, n),
		w:    make([]float64, n),
		mark: make([]int32, n),
	}
	for i := range f.pinv {
		f.pinv[i] = -1
	}
	csc := a.P.CSC()
	for j := 0; j < n; j++ {
		if err := f.factorColumn(a, csc, int32(j)); err != nil {
			return nil, fmt.Errorf("lu: column %d (original %d): %w", j, f.q[j], err)
		}
	}
	// An L row is pivoted only in a later column, so its step is known once
	// every column is done.
	f.lstep = make([]int32, len(f.lrow))
	for p, r := range f.lrow {
		f.lstep[p] = f.pinv[r]
	}
	return f, nil
}

// dfsReach computes the reach of column c's structural rows through the
// columns of L pivoted so far, leaving the nodes in topological order in
// f.post (dependencies first).
func (f *LU) dfsReach(csc *sparse.CSCView, c int32) {
	f.tick++
	f.post = f.post[:0]
	for p := csc.ColPtr[c]; p < csc.ColPtr[c+1]; p++ {
		root := csc.RowIdx[p]
		if f.mark[root] == f.tick {
			continue
		}
		// Iterative DFS with an explicit edge-cursor stack.
		f.stk = f.stk[:0]
		f.stk = append(f.stk, root, 0)
		f.mark[root] = f.tick
		for len(f.stk) > 0 {
			node := f.stk[len(f.stk)-2]
			cur := f.stk[len(f.stk)-1]
			k := f.pinv[node]
			expanded := false
			if k >= 0 { // pivoted: children are rows of L column k
				lo, hi := f.lp[k], f.lp[k+1]
				for p2 := lo + cur; p2 < hi; p2++ {
					child := f.lrow[p2]
					if f.mark[child] != f.tick {
						f.stk[len(f.stk)-1] = p2 - lo + 1
						f.stk = append(f.stk, child, 0)
						f.mark[child] = f.tick
						expanded = true
						break
					}
				}
			}
			if !expanded {
				f.stk = f.stk[:len(f.stk)-2]
				f.post = append(f.post, node)
			}
		}
	}
	// f.post is a postorder (children first); reversed, it is a topological
	// order in which every node comes after the L columns that update it.
	for i, j := 0, len(f.post)-1; i < j; i, j = i+1, j-1 {
		f.post[i], f.post[j] = f.post[j], f.post[i]
	}
}

func (f *LU) factorColumn(a *sparse.Matrix, csc *sparse.CSCView, j int32) error {
	c := f.q[j]
	f.dfsReach(csc, c)
	// Scatter A(:,c) into the workspace.
	for p := csc.ColPtr[c]; p < csc.ColPtr[c+1]; p++ {
		f.w[csc.RowIdx[p]] = a.Val[csc.Slot[p]]
	}
	// Sparse triangular solve in topological order.
	for _, node := range f.post {
		k := f.pinv[node]
		if k < 0 {
			continue
		}
		ukj := f.w[node]
		if ukj != 0 {
			for p := f.lp[k]; p < f.lp[k+1]; p++ {
				f.w[f.lrow[p]] -= ukj * f.lx[p]
			}
		}
	}
	// Pivot selection among unpivoted reach rows.
	var pivot int32 = -1
	var pmax float64
	for _, node := range f.post {
		if f.pinv[node] >= 0 {
			continue
		}
		if v := math.Abs(f.w[node]); v > pmax {
			pmax = v
			pivot = node
		}
	}
	if pivot < 0 || pmax == 0 {
		return ErrSingular
	}
	// Prefer the structural diagonal row if it is acceptable.
	if f.pinv[c] < 0 && f.mark[c] == f.tick {
		if v := math.Abs(f.w[c]); v >= f.tau*pmax {
			pivot = c
		}
	}
	d := f.w[pivot]
	f.pinv[pivot] = j
	f.prow[j] = pivot
	f.ud[j] = d

	// Collect U entries (pivoted rows) and L entries (remaining rows) in
	// DFS topological order. The solves only need whole columns processed
	// in pivot order, but Refactor replays this column's updates straight
	// off uk, so the order is part of the recorded structure.
	for _, node := range f.post {
		k := f.pinv[node]
		switch {
		case node == pivot:
			f.lpiv = append(f.lpiv, int32(len(f.lrow)))
		case k >= 0 && k < j:
			f.uk = append(f.uk, k)
			f.ux = append(f.ux, f.w[node])
		default: // unpivoted → L
			f.lrow = append(f.lrow, node)
			f.lx = append(f.lx, f.w[node]/d)
		}
		f.w[node] = 0
	}
	f.lp = append(f.lp, int32(len(f.lrow)))
	f.up = append(f.up, int32(len(f.uk)))
	return nil
}

// Refactor recomputes the numeric factors for a matrix with the same
// pattern, reusing the recorded pivot order and symbolic structure. If a
// recorded pivot has collapsed numerically it returns ErrPivotDegraded.
// With the same pivots it performs exactly Factor's floating-point
// operations in Factor's order, so its factors are bit-identical to those
// of a Factor call that picks the recorded pivots.
func (f *LU) Refactor(a *sparse.Matrix) error { return f.refactor(a, false) }

// RefactorChecked refactors a on the recorded structure and reports whether
// Factor(a) with the Options of the recorded factorization would choose
// exactly the recorded pivots. When it returns true the factors are
// bit-identical to that Factor's. When it returns false (including a zero,
// NaN or infinite pivot, or a pattern other than Factor's) the numeric
// factors are unusable and the caller must Factor afresh; the workspace is
// left clean either way.
func (f *LU) RefactorChecked(a *sparse.Matrix) bool { return f.refactor(a, true) == nil }

// errRepivot is refactor's verdict that Factor would pivot differently.
var errRepivot = errors.New("lu: Factor would choose different pivots")

// refactor is the kernel behind Refactor and RefactorChecked. It walks the
// factor's own storage column by column: U entries in their recorded
// topological order, then the pivot, then one pass over the L entries that
// scales and clears them while taking the magnitudes the pivot tests need.
// Without check the test is the growth guard; with check it is Factor's
// pivot rule replayed on the fresh values.
func (f *LU) refactor(a *sparse.Matrix, check bool) error {
	if a.P != f.pat {
		return errors.New("lu: Refactor requires the pattern used by Factor")
	}
	csc := a.P.CSC()
	w, lp, lrow, lx := f.w, f.lp, f.lrow, f.lx
	for j := int32(0); j < int32(f.n); j++ {
		c := f.q[j]
		for p := csc.ColPtr[c]; p < csc.ColPtr[c+1]; p++ {
			w[csc.RowIdx[p]] = a.Val[csc.Slot[p]]
		}
		// Topological order makes each U value final when it is reached:
		// every L column that updates its row has already been applied.
		for p := f.up[j]; p < f.up[j+1]; p++ {
			k := f.uk[p]
			r := f.prow[k]
			ukj := w[r]
			w[r] = 0
			f.ux[p] = ukj
			if ukj != 0 {
				rows := lrow[lp[k]:lp[k+1]]
				xs := lx[lp[k]:lp[k+1]]
				xs = xs[:len(rows)] // lets the compiler drop xs's bounds check
				for i, row := range rows {
					w[row] -= ukj * xs[i]
				}
			}
		}
		pr := f.prow[j]
		d, wc := w[pr], w[c]
		w[pr] = 0
		// The L pass in two halves around the pivot's topological slot:
		// Factor's argmax keeps the first of equal magnitudes, so a row
		// before the pivot must be strictly smaller, a row after it only no
		// larger.
		lo, mid, hi := lp[j], f.lpiv[j], lp[j+1]
		before := scaleL(w, lrow[lo:mid], lx[lo:mid], d)
		after := scaleL(w, lrow[mid:hi], lx[mid:hi], d)
		ad := math.Abs(d)
		if check {
			// Factor takes the first largest unpivoted row, then prefers
			// the structural diagonal row c if |w_c| ≥ τ·pmax. A row c
			// pivoted later but outside this reach has w_c = 0 and never
			// qualifies once pmax > 0.
			pmax := max(before, ad, after)
			ok := ad > before && ad >= after
			if f.pinv[c] >= j && math.Abs(wc) >= f.tau*pmax {
				ok = c == pr
			}
			if !ok || pmax == 0 || math.IsInf(pmax, 0) {
				return errRepivot
			}
		} else if d == 0 || math.IsNaN(d) || math.IsInf(d, 0) ||
			max(before, after) > refactorGrowthLimit*ad {
			// Pivot-growth guard: the recorded pivot must still dominate its
			// column well enough that the L entries stay bounded.
			return ErrPivotDegraded
		}
		f.ud[j] = d
	}
	return nil
}

// scaleL stores w[r]/d for each row r of an L column segment into xs and
// clears w there, returning the largest |w[r]| seen.
func scaleL(w []float64, rows []int32, xs []float64, d float64) float64 {
	xs = xs[:len(rows)]
	m := 0.0
	for i, r := range rows {
		v := w[r]
		w[r] = 0
		if av := math.Abs(v); av > m {
			m = av
		}
		xs[i] = v / d
	}
	return m
}

// Solve solves A·x = b in place: on return b holds x.
func (f *LU) Solve(b []float64) {
	n := f.n
	y := f.w[:n] // reuse workspace; fully overwritten then consumed
	b = b[:n]
	// Forward solve L̂ y = P b, processing pivot steps in order.
	for k := 0; k < n; k++ {
		yk := b[f.prow[k]]
		y[k] = yk
		if yk != 0 {
			lo, hi := f.lp[k], f.lp[k+1]
			rows, xs := f.lrow[lo:hi], f.lx[lo:hi]
			xs = xs[:len(rows)]
			for i, r := range rows {
				b[r] -= yk * xs[i]
			}
		}
	}
	// Back solve Û x̂ = y.
	for j := n - 1; j >= 0; j-- {
		xj := y[j] / f.ud[j]
		y[j] = xj
		if xj != 0 {
			lo, hi := f.up[j], f.up[j+1]
			ks, xs := f.uk[lo:hi], f.ux[lo:hi]
			xs = xs[:len(ks)]
			for i, k := range ks {
				y[k] -= xj * xs[i]
			}
		}
	}
	// Un-permute: x[q[j]] = x̂[j].
	q := f.q[:n]
	for j, qj := range q {
		b[qj] = y[j]
		y[j] = 0
	}
}

// SolveT solves Aᵀ·x = b in place: on return b holds x.
func (f *LU) SolveT(b []float64) {
	n := f.n
	z := f.w[:n]
	b = b[:n]
	// Forward solve Ûᵀ z = ĉ with ĉ[j] = b[q[j]].
	for j := 0; j < n; j++ {
		s := b[f.q[j]]
		lo, hi := f.up[j], f.up[j+1]
		ks, xs := f.uk[lo:hi], f.ux[lo:hi]
		xs = xs[:len(ks)]
		for i, k := range ks {
			s -= xs[i] * z[k]
		}
		z[j] = s / f.ud[j]
	}
	// Back solve L̂ᵀ ŷ = z; x[prow[k]] = ŷ[k].
	for k := n - 1; k >= 0; k-- {
		s := z[k]
		lo, hi := f.lp[k], f.lp[k+1]
		steps, xs := f.lstep[lo:hi], f.lx[lo:hi]
		xs = xs[:len(steps)]
		for i, st := range steps {
			s -= xs[i] * z[st]
		}
		z[k] = s
	}
	prow := f.prow[:n]
	for k, r := range prow {
		b[r] = z[k]
		z[k] = 0
	}
}
