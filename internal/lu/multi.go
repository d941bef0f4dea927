package lu

// Blocked multi-right-hand-side solves. The cost of a sparse triangular
// solve is dominated by pointer-chasing through the factor columns (lp/lrow,
// up/uk); when the adjoint sweep solves the same factorization for many
// objectives, traversing those columns once and streaming k right-hand sides
// through each visited entry amortizes that cost k ways. The k values of one
// node live contiguously (stride-k layout), so the inner loop over
// right-hand sides is a dense, cache-friendly sweep.
//
// Both kernels are bit-identical to k independent Solve/SolveT calls: every
// right-hand side sees exactly the same floating-point operations in exactly
// the same order — the interleaving only reorders operations between
// independent solves, never within one.

// multiScratch returns the two stride-k workspaces, growing the backing
// arrays on demand. After the first call with a given k (or any larger
// one), subsequent multi-solves allocate nothing.
func (f *LU) multiScratch(k int) (zs, ws []float64) {
	need := f.n * k
	if cap(f.mw) < need {
		f.mw = make([]float64, need)
	}
	if cap(f.mb) < need {
		f.mb = make([]float64, need)
	}
	return f.mw[:need], f.mb[:need]
}

// ReserveMulti sizes the multi-RHS workspaces for up to k right-hand sides,
// so SolveMulti and SolveTMulti calls with any k' ≤ k allocate nothing. A
// caller whose right-hand-side count grows call by call reserves its
// maximum once instead of regrowing at every new count.
func (f *LU) ReserveMulti(k int) {
	if k > 1 { // a single right-hand side takes the scratch-free SolveT path
		f.multiScratch(k)
	}
}

// SolveMulti solves A·x = b in place for every right-hand side in bs: on
// return each bs[r] holds its solution. The factor columns are traversed
// once for all len(bs) systems. Results are bit-identical to calling Solve
// on each right-hand side individually. bs[r] must not alias each other.
func (f *LU) SolveMulti(bs [][]float64) {
	k := len(bs)
	switch k {
	case 0:
		return
	case 1:
		f.Solve(bs[0])
		return
	}
	n := f.n
	zs, ws := f.multiScratch(k)
	// Scatter the right-hand sides into the original-row-indexed workspace.
	for r, b := range bs {
		b = b[:n]
		for i, v := range b {
			ws[i*k+r] = v
		}
	}
	// Forward solve L̂ y = P b, processing pivot steps in order. ws plays
	// the role of the in-place-updated b; zs holds y.
	for kk := 0; kk < n; kk++ {
		zb := zs[kk*k : kk*k+k]
		pb := int(f.prow[kk]) * k
		copy(zb, ws[pb:pb+k])
		lo, hi := f.lp[kk], f.lp[kk+1]
		rows, xs := f.lrow[lo:hi], f.lx[lo:hi]
		xs = xs[:len(rows)]
		for i, row := range rows {
			l := xs[i]
			wb := int(row) * k
			dst := ws[wb : wb+k]
			dst = dst[:len(zb)]
			for r, z := range zb {
				dst[r] -= z * l
			}
		}
	}
	// Back solve Û x̂ = y.
	for j := n - 1; j >= 0; j-- {
		zb := zs[j*k : j*k+k]
		d := f.ud[j]
		for r := range zb {
			zb[r] /= d
		}
		lo, hi := f.up[j], f.up[j+1]
		ks, xs := f.uk[lo:hi], f.ux[lo:hi]
		xs = xs[:len(ks)]
		for i, kj := range ks {
			u := xs[i]
			ub := int(kj) * k
			dst := zs[ub : ub+k]
			dst = dst[:len(zb)]
			for r, z := range zb {
				dst[r] -= z * u
			}
		}
	}
	// Un-permute: x[q[j]] = x̂[j].
	for j := 0; j < n; j++ {
		zb := zs[j*k : j*k+k]
		qj := f.q[j]
		for r, b := range bs {
			b[qj] = zb[r]
		}
	}
}

// SolveTMulti solves Aᵀ·x = b in place for every right-hand side in bs,
// traversing the factor columns once for all len(bs) systems — the adjoint
// sweep's one-factorization-many-objectives kernel. Results are
// bit-identical to calling SolveT on each right-hand side individually.
// bs[r] must not alias each other.
func (f *LU) SolveTMulti(bs [][]float64) {
	k := len(bs)
	switch k {
	case 0:
		return
	case 1:
		f.SolveT(bs[0])
		return
	}
	n := f.n
	zs, _ := f.multiScratch(k)
	// Forward solve Ûᵀ z = ĉ with ĉ[j] = b[q[j]].
	for j := 0; j < n; j++ {
		zb := zs[j*k : j*k+k]
		qj := f.q[j]
		for r, b := range bs {
			zb[r] = b[qj]
		}
		lo, hi := f.up[j], f.up[j+1]
		ks, xs := f.uk[lo:hi], f.ux[lo:hi]
		xs = xs[:len(ks)]
		for i, kj := range ks {
			u := xs[i]
			ub := int(kj) * k
			src := zs[ub : ub+k]
			src = src[:len(zb)]
			for r, v := range src {
				zb[r] -= u * v
			}
		}
		d := f.ud[j]
		for r := range zb {
			zb[r] /= d
		}
	}
	// Back solve L̂ᵀ ŷ = z; x[prow[kk]] = ŷ[kk].
	for kk := n - 1; kk >= 0; kk-- {
		zb := zs[kk*k : kk*k+k]
		lo, hi := f.lp[kk], f.lp[kk+1]
		steps, xs := f.lstep[lo:hi], f.lx[lo:hi]
		xs = xs[:len(steps)]
		for i, st := range steps {
			l := xs[i]
			sb := int(st) * k
			src := zs[sb : sb+k]
			src = src[:len(zb)]
			for r, v := range src {
				zb[r] -= l * v
			}
		}
	}
	for kk := 0; kk < n; kk++ {
		zb := zs[kk*k : kk*k+k]
		row := f.prow[kk]
		for r, b := range bs {
			b[row] = zb[r]
		}
	}
}
