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
	// stored. lrow holds original rows r with pinv[r] > k.
	lp   []int32
	lrow []int32
	lx   []float64

	// U columns: pivot-step indices k < j, sorted ascending; diagonal in ud.
	up []int32
	uk []int32
	ux []float64
	ud []float64

	// Recorded numeric recipe for Refactor: per column, the reach in
	// topological order (original rows) and each node's destination:
	// >= 0: index into ux (U node; k = pinv[row]); -1: pivot; -2..: L node
	// encoded as -(lxIndex+2).
	topoPtr  []int32
	topoRow  []int32
	topoDest []int32

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
		n:       n,
		pat:     a.P,
		tau:     tau,
		q:       q,
		pinv:    make([]int32, n),
		prow:    make([]int32, n),
		lp:      make([]int32, 1, n+1),
		up:      make([]int32, 1, n+1),
		ud:      make([]float64, n),
		w:       make([]float64, n),
		mark:    make([]int32, n),
		topoPtr: make([]int32, 1, n+1),
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
	// f.post is a valid topological order (children recorded before
	// parents), which is the order the sparse triangular solve needs when
	// processed from the END: we want dependencies processed first, and a
	// node's dependencies (the L-columns that update it) are its DFS
	// descendants... For the left-looking update we must process U nodes so
	// that a node is finalized before its column updates others. Reverse
	// postorder gives that.
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

	// Collect U entries (pivoted rows) and L entries (remaining rows),
	// recording the refactor recipe in DFS topological order. Entry order
	// within a column is irrelevant to the solves: both substitution
	// directions only require whole columns to be processed in pivot order.
	for _, node := range f.post {
		f.topoRow = append(f.topoRow, node)
		k := f.pinv[node]
		switch {
		case node == pivot:
			f.topoDest = append(f.topoDest, -1)
		case k >= 0 && k < j:
			f.topoDest = append(f.topoDest, int32(len(f.uk)))
			f.uk = append(f.uk, k)
			f.ux = append(f.ux, f.w[node])
		default: // unpivoted → L
			f.topoDest = append(f.topoDest, -(int32(len(f.lrow)) + 2))
			f.lrow = append(f.lrow, node)
			f.lx = append(f.lx, f.w[node]/d)
		}
		f.w[node] = 0
	}
	f.lp = append(f.lp, int32(len(f.lrow)))
	f.up = append(f.up, int32(len(f.uk)))
	f.topoPtr = append(f.topoPtr, int32(len(f.topoRow)))
	return nil
}

// Refactor recomputes the numeric factors for a matrix with the same
// pattern, reusing the recorded pivot order and symbolic structure. If a
// recorded pivot has collapsed numerically it returns ErrPivotDegraded.
func (f *LU) Refactor(a *sparse.Matrix) error {
	if a.P != f.pat {
		return errors.New("lu: Refactor requires the pattern used by Factor")
	}
	csc := a.P.CSC()
	for j := 0; j < f.n; j++ {
		c := f.q[j]
		for p := csc.ColPtr[c]; p < csc.ColPtr[c+1]; p++ {
			f.w[csc.RowIdx[p]] = a.Val[csc.Slot[p]]
		}
		lo, hi := f.topoPtr[j], f.topoPtr[j+1]
		// Apply the recorded updates in the recorded topological order.
		for t := lo; t < hi; t++ {
			node := f.topoRow[t]
			k := f.pinv[node]
			if node == f.prow[j] || k > int32(j) {
				continue // pivot or L node: no update from it
			}
			ukj := f.w[node]
			dst := f.topoDest[t]
			f.ux[dst] = ukj
			if ukj != 0 {
				for p := f.lp[k]; p < f.lp[k+1]; p++ {
					f.w[f.lrow[p]] -= ukj * f.lx[p]
				}
			}
		}
		d := f.w[f.prow[j]]
		bad := d == 0 || math.IsNaN(d) || math.IsInf(d, 0)
		if !bad {
			// Pivot-growth guard: the recorded pivot must still dominate its
			// column well enough that the L entries stay bounded.
			maxw := 0.0
			for t := lo; t < hi; t++ {
				if f.topoDest[t] < -1 {
					if a := math.Abs(f.w[f.topoRow[t]]); a > maxw {
						maxw = a
					}
				}
			}
			bad = maxw > refactorGrowthLimit*math.Abs(d)
		}
		if bad {
			// Clear workspace before bailing out.
			for t := lo; t < hi; t++ {
				f.w[f.topoRow[t]] = 0
			}
			return ErrPivotDegraded
		}
		f.ud[j] = d
		for t := lo; t < hi; t++ {
			node := f.topoRow[t]
			dst := f.topoDest[t]
			if dst < -1 {
				f.lx[-(dst + 2)] = f.w[node] / d
			}
			f.w[node] = 0
		}
	}
	return nil
}

// Solve solves A·x = b in place: on return b holds x.
func (f *LU) Solve(b []float64) {
	n := f.n
	y := f.w // reuse workspace; fully overwritten then consumed
	// Forward solve L̂ y = P b, processing pivot steps in order.
	for k := 0; k < n; k++ {
		yk := b[f.prow[k]]
		y[k] = yk
		if yk != 0 {
			for p := f.lp[k]; p < f.lp[k+1]; p++ {
				b[f.lrow[p]] -= yk * f.lx[p]
			}
		}
	}
	// Back solve Û x̂ = y.
	for j := n - 1; j >= 0; j-- {
		xj := y[j] / f.ud[j]
		y[j] = xj
		if xj != 0 {
			for p := f.up[j]; p < f.up[j+1]; p++ {
				y[f.uk[p]] -= xj * f.ux[p]
			}
		}
	}
	// Un-permute: x[q[j]] = x̂[j].
	for j := 0; j < n; j++ {
		b[f.q[j]] = y[j]
		y[j] = 0
	}
}

// SolveT solves Aᵀ·x = b in place: on return b holds x.
func (f *LU) SolveT(b []float64) {
	n := f.n
	z := f.w
	// Forward solve Ûᵀ z = ĉ with ĉ[j] = b[q[j]].
	for j := 0; j < n; j++ {
		s := b[f.q[j]]
		for p := f.up[j]; p < f.up[j+1]; p++ {
			s -= f.ux[p] * z[f.uk[p]]
		}
		z[j] = s / f.ud[j]
	}
	// Back solve L̂ᵀ ŷ = z; x[prow[k]] = ŷ[k].
	for k := n - 1; k >= 0; k-- {
		s := z[k]
		for p := f.lp[k]; p < f.lp[k+1]; p++ {
			s -= f.lx[p] * z[f.pinv[f.lrow[p]]]
		}
		z[k] = s
	}
	for k := 0; k < n; k++ {
		b[f.prow[k]] = z[k]
	}
	for k := 0; k < n; k++ {
		z[k] = 0
	}
}
