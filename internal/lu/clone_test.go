package lu

import (
	"math"
	"math/rand"
	"testing"

	"masc/internal/sparse"
)

// perturbed returns a matrix on m's pattern with perturbed values, so
// Refactor (which requires the identical pattern) sees fresh numerics.
func perturbed(m *sparse.Matrix, rng *rand.Rand, scale float64) *sparse.Matrix {
	out := &sparse.Matrix{P: m.P, Val: append([]float64(nil), m.Val...)}
	for k := range out.Val {
		out.Val[k] += scale * 0.01 * rng.NormFloat64() * (1 + math.Abs(out.Val[k]))
	}
	return out
}

// TestCloneRefactorMatchesOriginal pins the Clone contract: refactoring a
// clone with a new matrix produces bit-identical solves to refactoring the
// original, and the two then evolve independently.
func TestCloneRefactorMatchesOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 24
	m1 := randomSPDish(rng, n, 3*n)
	f, err := Factor(m1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := f.Clone()
	// lstep is write-once structure: the clone shares it, and it indexes
	// each L entry's pivot step.
	if len(f.lstep) != len(f.lrow) || len(g.lstep) != len(f.lstep) {
		t.Fatalf("lstep len %d (clone %d), want nnz(L) %d", len(f.lstep), len(g.lstep), len(f.lrow))
	}
	if len(f.lstep) > 0 && &g.lstep[0] != &f.lstep[0] {
		t.Fatal("clone copied lstep instead of sharing it")
	}
	for p, r := range f.lrow {
		if f.lstep[p] != f.pinv[r] {
			t.Fatalf("lstep[%d] = %d, want pinv[lrow[%d]] = %d", p, f.lstep[p], p, f.pinv[r])
		}
	}

	// Same next matrix through both: solves must agree bit for bit.
	m2 := perturbed(m1, rng, 2)
	if err := f.Refactor(m2); err != nil {
		t.Fatalf("original refactor: %v", err)
	}
	if err := g.Refactor(m2); err != nil {
		t.Fatalf("clone refactor: %v", err)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	x1 := append([]float64(nil), rhs...)
	x2 := append([]float64(nil), rhs...)
	f.SolveT(x1)
	g.SolveT(x2)
	for i := range x1 {
		if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
			t.Fatalf("solve diverges at %d: %g vs %g", i, x1[i], x2[i])
		}
	}
	// The clone's blocked transpose solve walks the shared lstep too.
	bs := [][]float64{append([]float64(nil), rhs...), make([]float64, n)}
	for i := range bs[1] {
		bs[1][i] = rng.NormFloat64()
	}
	y1 := append([]float64(nil), bs[1]...)
	f.SolveT(y1)
	g.SolveTMulti(bs)
	for i := range x1 {
		if math.Float64bits(bs[0][i]) != math.Float64bits(x1[i]) || math.Float64bits(bs[1][i]) != math.Float64bits(y1[i]) {
			t.Fatalf("clone SolveTMulti diverges from original SolveT at %d", i)
		}
	}

	// Diverge: refactor the original with a third matrix; the clone's
	// factors must be untouched.
	if err := f.Refactor(perturbed(m1, rng, 3)); err != nil {
		t.Fatalf("diverging refactor: %v", err)
	}
	x3 := append([]float64(nil), rhs...)
	g.SolveT(x3)
	for i := range x2 {
		if math.Float64bits(x2[i]) != math.Float64bits(x3[i]) {
			t.Fatalf("clone factors mutated by original's refactor at %d", i)
		}
	}
}
