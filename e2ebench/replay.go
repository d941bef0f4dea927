package main

import (
	"errors"
	"fmt"

	"masc"
	"masc/internal/adjoint"
	"masc/internal/circuit"
	"masc/internal/compress/masczip"
	"masc/internal/device"
	"masc/internal/lu"
	"masc/internal/sparse"
)

// Replays time a layer's public functions on the inputs a traced call
// produced (its captured Jacobians, its trajectory), from the benchmark's
// own code, one span per call.

// luSample bounds how many captured steps the per-call LU timings use.
const luSample = 32

// luNNZ is nnz(L)+nnz(U) of the reference run's final-step Jacobian under the
// circuit's column ordering.
func luNNZ(ckt *masc.Circuit, ref *masc.Run) int {
	rs := adjoint.NewRecomputeSource(ckt, ref.Tran)
	jv, _, err := rs.Fetch(ref.Tran.Steps())
	if err != nil {
		return 0
	}
	f, err := lu.Factor(&sparse.Matrix{P: ckt.JPat, Val: jv}, lu.Options{ColPerm: ckt.JPerm()})
	if err != nil {
		return 0
	}
	return f.LNNZ() + f.UNNZ()
}

// sampleSteps returns up to k evenly spaced indices of [0, n).
func sampleSteps(n, k int) []int {
	if n <= k {
		k = n
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}

// luReplay times lu.Factor on sampled captured Jacobians, lu.Refactor along
// the whole captured sequence in step order (counting ErrPivotDegraded
// fallbacks to a fresh Factor, as the solvers do), and Solve and
// SolveTMulti with nobj right-hand sides on the final factorization.
// Timings are per call, in seconds.
func luReplay(tr *tracer, parent int, ckt *masc.Circuit, js [][]float64, nobj int) (map[string]float64, error) {
	perm := ckt.JPerm()
	m := &sparse.Matrix{P: ckt.JPat}
	var factor, refactor, solve, solveTM []float64
	for _, i := range sampleSteps(len(js), luSample) {
		m.Val = js[i]
		var err error
		factor = append(factor, tr.time("lu.factor", parent, func() { _, err = lu.Factor(m, lu.Options{ColPerm: perm}) }))
		if err != nil {
			return nil, fmt.Errorf("lu replay: factor step %d: %w", i, err)
		}
	}
	m.Val = js[0]
	f, err := lu.Factor(m, lu.Options{ColPerm: perm})
	if err != nil {
		return nil, fmt.Errorf("lu replay: factor step 0: %w", err)
	}
	fallbacks := 0
	for i := 1; i < len(js); i++ {
		m.Val = js[i]
		d := tr.time("lu.refactor", parent, func() { err = f.Refactor(m) })
		switch {
		case err == nil:
			refactor = append(refactor, d)
		case errors.Is(err, lu.ErrPivotDegraded):
			fallbacks++
			if f, err = lu.Factor(m, lu.Options{ColPerm: perm}); err != nil {
				return nil, fmt.Errorf("lu replay: refactor fallback step %d: %w", i, err)
			}
		default:
			return nil, fmt.Errorf("lu replay: refactor step %d: %w", i, err)
		}
	}
	b := make([]float64, ckt.N)
	bs := make([][]float64, nobj)
	for o := range bs {
		bs[o] = make([]float64, ckt.N)
	}
	fill := func() {
		for i := range b {
			b[i] = 1
		}
		for o := range bs {
			for i := range bs[o] {
				bs[o][i] = float64(o + 1)
			}
		}
	}
	for r := 0; r < luSample; r++ {
		fill()
		solve = append(solve, tr.time("lu.solve", parent, func() { f.Solve(b) }))
		solveTM = append(solveTM, tr.time("lu.solvet_multi", parent, func() { f.SolveTMulti(bs) }))
	}
	return map[string]float64{
		"lu.factor_s":        median(factor),
		"lu.refactor_s":      median(refactor),
		"lu.solve_s":         median(solve),
		"lu.solvet_multi_s":  median(solveTM),
		"lu.fill_ratio":      float64(f.LNNZ()+f.UNNZ()) / float64(ckt.JPat.NNZ()),
		"lu.pivot_fallbacks": float64(fallbacks),
	}, nil
}

// circuitReplay times Eval.Run, BuildJ and ParamSens (every analysed
// parameter) over the whole trajectory in sweep order, n down to 0. The
// results are totals per pass, in seconds: what the recompute rung or a
// parameter-gradient sweep pays for the device layer.
func circuitReplay(tr *tracer, parent int, ckt *masc.Circuit, tran *masc.TransientResult, params []int) map[string]float64 {
	ev := circuit.NewEval(ckt)
	j := sparse.NewMatrix(ckt.JPat)
	acc := device.NewSensAccum(ckt.N)
	var eval, build, sens float64
	for i := tran.Steps(); i >= 0; i-- {
		x, t := tran.States[i], tran.Times[i]
		invH := 0.0
		if i > 0 {
			invH = 1 / tran.Hs[i]
		}
		eval += tr.time("circuit.eval", parent, func() { ev.Run(x, t) })
		build += tr.time("circuit.buildj", parent, func() { ev.BuildJ(j, invH) })
		sens += tr.time("circuit.paramsens", parent, func() {
			for _, p := range params {
				ev.ParamSens(p, x, t, acc)
				acc.Reset()
			}
		})
	}
	return map[string]float64{"circuit.eval_s": eval, "circuit.buildj_s": build, "circuit.paramsens_s": sens}
}

// recomputeReplay times adjoint.RecomputeSource.Fetch for every step in
// sweep order: what the recompute storage baseline pays for Jacobians.
func recomputeReplay(tr *tracer, parent int, ckt *masc.Circuit, tran *masc.TransientResult) (float64, error) {
	rs := adjoint.NewRecomputeSource(ckt, tran)
	total := 0.0
	for i := tran.Steps(); i >= 0; i-- {
		var err error
		total += tr.time("adjoint.recompute_fetch", parent, func() { _, _, err = rs.Fetch(i) })
		if err != nil {
			return 0, fmt.Errorf("recompute replay: step %d: %w", i, err)
		}
	}
	return total, nil
}

// codecReplay pushes the captured tensor through timed masczip codecs with
// the compressed store's chaining: step i is encoded against step i+1 and
// decoded in descending order against the decoded step i+1. Used where the
// store is built inside Simulate and its codec cannot be wrapped.
func codecReplay(tr *tracer, parent int, ckt *masc.Circuit, js, cs [][]float64) (jc, cc *timedCodec, err error) {
	jc = &timedCodec{Compressor: masczip.New(ckt.JPat, masczip.Options{Workers: 1}), tr: tr}
	cc = &timedCodec{Compressor: masczip.New(ckt.CPat, masczip.Options{Workers: 1}), tr: tr}
	n := len(js) - 1
	jb, cb := make([][]byte, n+1), make([][]byte, n+1)
	tr.scope = parent
	defer func() { tr.scope = 0 }()
	for i := 0; i <= n; i++ {
		var rj, rc []float64
		if i < n {
			rj, rc = js[i+1], cs[i+1]
		}
		jb[i] = jc.Compress(nil, js[i], rj)
		cb[i] = cc.Compress(nil, cs[i], rc)
	}
	var prevJ, prevC []float64
	for i := n; i >= 0; i-- {
		dj, dc := make([]float64, len(js[i])), make([]float64, len(cs[i]))
		if err := jc.Decompress(dj, jb[i], prevJ); err != nil {
			return nil, nil, fmt.Errorf("codec replay: J step %d: %w", i, err)
		}
		if err := cc.Decompress(dc, cb[i], prevC); err != nil {
			return nil, nil, fmt.Errorf("codec replay: C step %d: %w", i, err)
		}
		if !sameBits([][]float64{dj, dc}, [][]float64{js[i], cs[i]}) {
			return nil, nil, fmt.Errorf("codec replay: step %d does not round-trip", i)
		}
		prevJ, prevC = dj, dc
	}
	return jc, cc, nil
}
