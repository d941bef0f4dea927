package main

import (
	"math"

	"masc"
)

// directTol is the adjoint-vs-direct relative tolerance of the repository's
// differential verification harness (internal/verify's DirectTol default).
const directTol = 1e-4

// sameBits reports whether two sensitivity matrices are bit-identical.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for o := range a {
		if len(a[o]) != len(b[o]) {
			return false
		}
		for k := range a[o] {
			if math.Float64bits(a[o][k]) != math.Float64bits(b[o][k]) {
				return false
			}
		}
	}
	return true
}

// directRelErr is the largest relative disagreement between adjoint and
// direct sensitivities, with the noise gates the verification harness
// uses: an entry's error is scaled by the larger of 1e-3 × its objective's
// and its parameter's largest |dO/dp|, and entries whose elasticity is below
// ~1000 ulps of the objective's noise scale (Weight × max|x|) are skipped as
// unresolvable by either method.
func directRelErr(tr *masc.TransientResult, objs []masc.Objective, params []int, ckt *masc.Circuit, adj, dir [][]float64) float64 {
	xmax := 0.0
	for _, x := range tr.States {
		for _, v := range x {
			xmax = math.Max(xmax, math.Abs(v))
		}
	}
	pscale := make([]float64, len(adj[0]))
	for _, row := range adj {
		for k, v := range row {
			pscale[k] = math.Max(pscale[k], 1e-3*math.Abs(v))
		}
	}
	const eps = 2.220446049250313e-16
	all := ckt.Params()
	worst := 0.0
	for o, row := range adj {
		oscale := 0.0
		for _, v := range row {
			oscale = math.Max(oscale, 1e-3*math.Abs(v))
		}
		noise := math.Abs(objs[o].Weight) * xmax
		for k, a := range row {
			d := dir[o][k]
			if math.Max(math.Abs(a), math.Abs(d))*math.Abs(all[params[k]].Get()) < 1000*eps*noise {
				continue
			}
			den := math.Max(math.Max(math.Abs(a), math.Abs(d)), math.Max(oscale, pscale[k]))
			if den > 0 {
				worst = math.Max(worst, math.Abs(a-d)/den)
			}
		}
	}
	return worst
}
