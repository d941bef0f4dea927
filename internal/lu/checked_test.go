package lu

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"masc/internal/sparse"
)

// tieValues are exact binary magnitudes with both signs: eliminations on
// them stay exact long enough that equal-magnitude candidates (argmax
// ties) and |w_c| exactly at τ·pmax (with τ a power of two) keep occurring.
var tieValues = []float64{0, 1, -1, 2, -2, 4, -4, 0.5, -0.5, 0.25, 8}

// tieMatrix fills a random pattern with values drawn from tieValues.
func tieMatrix(rng *rand.Rand, p *sparse.Pattern) *sparse.Matrix {
	m := sparse.NewMatrix(p)
	for k := range m.Val {
		m.Val[k] = tieValues[rng.Intn(len(tieValues))]
	}
	return m
}

// randomPattern has a full diagonal plus extra random entries.
func randomPattern(rng *rand.Rand, n, extra int) *sparse.Pattern {
	b := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(int32(i), int32(i))
	}
	for e := 0; e < extra; e++ {
		b.Add(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sameFactors reports whether f and g hold the same structure and
// bit-identical numeric factors.
func sameFactors(f, g *LU) bool {
	return slices.Equal(f.prow, g.prow) && slices.Equal(f.lp, g.lp) && slices.Equal(f.lrow, g.lrow) &&
		slices.Equal(f.lpiv, g.lpiv) && slices.Equal(f.up, g.up) && slices.Equal(f.uk, g.uk) &&
		bitsEqual(f.lx, g.lx) && bitsEqual(f.ux, g.ux) && bitsEqual(f.ud, g.ud)
}

// sameSolves reports whether f and g give bit-identical Solve and SolveT
// results on one right-hand side.
func sameSolves(f, g *LU, b []float64) bool {
	x1, x2 := slices.Clone(b), slices.Clone(b)
	f.Solve(x1)
	g.Solve(x2)
	y1, y2 := slices.Clone(b), slices.Clone(b)
	f.SolveT(y1)
	g.SolveT(y2)
	return bitsEqual(x1, x2) && bitsEqual(y1, y2)
}

// dirty reports a workspace that is not all-zero.
func dirty(w []float64) bool {
	return slices.ContainsFunc(w, func(v float64) bool { return v != 0 })
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// checkRefactorChecked factors m1, refactors m2 on that structure with
// RefactorChecked and holds the result to its contract against a fresh
// Factor of m2. It returns whether the recorded pivots were kept, or
// skipped=true when m1 itself is singular.
func checkRefactorChecked(t *testing.T, m1, m2 *sparse.Matrix, opt Options) (kept, skipped bool) {
	t.Helper()
	f, err := Factor(m1, opt)
	if err != nil {
		return false, true
	}
	kept = f.RefactorChecked(m2)
	if dirty(f.w) {
		t.Fatalf("workspace not clean after RefactorChecked (kept=%v)", kept)
	}
	g, gerr := Factor(m2, opt)
	samePivots := gerr == nil && slices.Equal(f.prow, g.prow)
	if kept {
		if !samePivots {
			t.Fatalf("RefactorChecked kept pivots %v, Factor chooses %v (err %v)", f.prow, pivotsOf(g), gerr)
		}
		if !sameFactors(f, g) {
			t.Fatalf("RefactorChecked factors differ from Factor's on the same pivots")
		}
		b := make([]float64, m2.P.N)
		for i := range b {
			b[i] = float64(i%7) - 3
		}
		if !sameSolves(f, g, b) {
			t.Fatalf("solves on RefactorChecked factors differ from Factor's")
		}
	} else if samePivots && allFinite(g.lx) && allFinite(g.ux) && allFinite(g.ud) {
		// The check replays Factor's rule exactly, so on finite factors it
		// may not give up on pivots Factor would keep.
		t.Fatalf("RefactorChecked rejected pivots %v that Factor keeps", f.prow)
	}
	return kept, false
}

func pivotsOf(g *LU) []int32 {
	if g == nil {
		return nil
	}
	return g.prow
}

func TestRefactorCheckedMatchesFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var kept, rejected int
	for iter := 0; iter < 3000; iter++ {
		n := 2 + rng.Intn(14)
		p := randomPattern(rng, n, rng.Intn(3*n+1))
		opt := Options{PivotThreshold: []float64{0, 0.5, 0.25, 1}[iter%4]}
		if iter%3 == 0 {
			opt.ColPerm = AMD(p)
		}
		m1 := tieMatrix(rng, p)
		var m2 *sparse.Matrix
		switch iter % 3 {
		case 0: // a fresh draw: pivots often move
			m2 = tieMatrix(rng, p)
		case 1: // a few entries redrawn: pivots often stay
			m2 = m1.Clone()
			for k := 0; k < 1+rng.Intn(3); k++ {
				m2.Val[rng.Intn(len(m2.Val))] = tieValues[rng.Intn(len(tieValues))]
			}
		default: // the same matrix: pivots must stay
			m2 = m1.Clone()
		}
		k, skipped := checkRefactorChecked(t, m1, m2, opt)
		switch {
		case skipped:
		case k:
			kept++
		default:
			rejected++
		}
	}
	// Both verdicts must be exercised for the property to mean anything.
	if kept < 300 || rejected < 300 {
		t.Fatalf("kept %d, rejected %d: property under-exercised", kept, rejected)
	}
}

func TestRefactorCheckedRejectsBadPivots(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := randomSPDish(rng, 30, 90)
	f, err := Factor(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !f.RefactorChecked(m) {
		t.Fatal("RefactorChecked rejected the matrix its pivots were chosen on")
	}
	// Column 0 of the factorization has no U entries, so its pivot is
	// A's entry itself.
	piv := f.prow[0]
	slot := -1
	lo, hi := m.P.Row(piv)
	for k := lo; k < hi; k++ {
		if m.P.ColIdx[k] == f.q[0] {
			slot = int(k)
		}
	}
	for _, tc := range []struct {
		name string
		v    float64
	}{
		{"zero", 0}, {"nan", math.NaN()}, {"inf", math.Inf(1)}, {"-inf", math.Inf(-1)},
		{"flipped", 1e-9 * m.Val[slot]},
	} {
		m2 := m.Clone()
		m2.Val[slot] = tc.v
		if f.RefactorChecked(m2) {
			t.Errorf("%s pivot: RefactorChecked returned true", tc.name)
		}
		if dirty(f.w) {
			t.Errorf("%s pivot: workspace not clean", tc.name)
		}
		if !f.RefactorChecked(m) {
			t.Errorf("%s pivot: RefactorChecked did not recover on the original matrix", tc.name)
		}
	}
	other := randomSPDish(rng, 30, 90)
	if f.RefactorChecked(other) {
		t.Error("RefactorChecked accepted a foreign pattern")
	}
}

// FuzzRefactorChecked holds RefactorChecked to its contract on small
// matrices decoded from the input: byte 0 sizes the matrix and picks τ, then
// each 4-byte group adds entry (row, col) with one value in each of the two
// matrices.
func FuzzRefactorChecked(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 1, 0, 4, 4, 2, 2, 5, 6})
	f.Add([]byte{0x45, 0, 1, 1, 2, 1, 0, 2, 1, 1, 1, 0, 3, 2, 2, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 2 + int(data[0]%10)
		tau := []float64{0, 0.5, 0.25, 1}[data[0]>>6]
		data = data[1:]
		b := sparse.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.Add(int32(i), int32(i))
		}
		for g := 0; g+4 <= len(data); g += 4 {
			b.Add(int32(int(data[g])%n), int32(int(data[g+1])%n))
		}
		p := b.Build()
		m1, m2 := sparse.NewMatrix(p), sparse.NewMatrix(p)
		for i := 0; i < n; i++ {
			m1.AddAt(int32(i), int32(i), 1)
			m2.AddAt(int32(i), int32(i), 1)
		}
		for g := 0; g+4 <= len(data); g += 4 {
			i, j := int32(int(data[g])%n), int32(int(data[g+1])%n)
			m1.AddAt(i, j, tieValues[int(data[g+2])%len(tieValues)])
			m2.AddAt(i, j, tieValues[int(data[g+3])%len(tieValues)])
		}
		checkRefactorChecked(t, m1, m2, Options{PivotThreshold: tau})
	})
}
