package transient

import (
	"errors"
	"math"
	"slices"
	"testing"

	"masc/internal/circuit"
	"masc/internal/device"
	"masc/internal/lu"
	"masc/internal/obs"
	"masc/internal/sparse"
)

// buildRectifier is a half-wave rectifier whose diode conductance swings
// across the pivot threshold each cycle, so the recorded LU pivots go
// stale mid-run.
func buildRectifier(t testing.TB) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder()
	b.AddVSource("vin", "in", "0", device.Sin{VA: 5, Freq: 1e3})
	b.AddDiode("d1", "in", "out")
	b.AddResistor("rl", "out", "0", 1e3)
	b.AddCapacitor("cl", "out", "0", 1e-6)
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ckt
}

// TestFreshFactorPerStepBitIdentical pins FreshFactorPerStep, which keeps
// the recorded pivots whenever lu.Factor would choose them, against steps
// that really factor afresh. A resumed run starts with no factor, so
// resuming from each checkpoint of the run under test and stopping after
// one step gives that step from a genuine lu.Factor; by induction over the
// steps, a match at every step is a match with a run that drops its factor
// before every step. Newton's last update is far below a state's ulp, so a
// trajectory rarely shows a pivot change; the captured Jacobians are
// therefore also replayed through the solver's factorize and its solves
// held bit-identical to a fresh lu.Factor's.
func TestFreshFactorPerStepBitIdentical(t *testing.T) {
	ckt := buildRectifier(t)
	opts := Options{TStop: 3e-3, TStep: 2e-5, FreshFactorPerStep: true}

	var nextH []float64
	var cuts []int
	var js [][]float64
	o := opts
	o.Obs = &obs.Observer{Reg: obs.NewRegistry()}
	o.Capture = func(_ int, _ float64, _ []float64, j, _ *sparse.Matrix) error {
		js = append(js, slices.Clone(j.Val))
		return nil
	}
	o.AfterStep = func(_ int, _, _, nh float64, c int, _ []float64) error {
		nextH = append(nextH, nh)
		cuts = append(cuts, c)
		return nil
	}
	got, err := Run(ckt, o)
	if err != nil {
		t.Fatal(err)
	}
	st := got.Stats
	// The reference below needs one attempt per step, and the comparison
	// only bites if some steps keep their pivots and others must re-pivot.
	if st.StepsCut != 0 {
		t.Fatalf("%d step cuts: the one-step reference cannot reproduce retried attempts", st.StepsCut)
	}
	repivots := o.Obs.Reg.Counter("masc_lu_refactor_fallback_total", "", "reason", "repivot").Value()
	if repivots == 0 || int(repivots) > st.PivotFallbacks || st.Refactorizations < got.Steps() {
		t.Fatalf("stats %+v, %g repivot fallbacks: both paths must be exercised", st, repivots)
	}

	s := newSolver(ckt, opts, &Stats{})
	rhs := make([]float64, ckt.N)
	for k := range rhs {
		rhs[k] = float64(k%5) - 2
	}
	for i, j := range js {
		copy(s.J.Val, j)
		s.repivot = true
		if err := s.factorize(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		f, err := lu.Factor(s.J, lu.Options{ColPerm: s.perm})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		x, y := slices.Clone(rhs), slices.Clone(rhs)
		s.fact.Solve(x)
		f.Solve(y)
		if !slices.EqualFunc(x, y, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("step %d: solve on the kept factorization differs from a fresh lu.Factor's", i)
		}
	}
	if s.st.PivotFallbacks == 0 || s.st.Refactorizations == 0 {
		t.Fatalf("replay stats %+v: both paths must be exercised", *s.st)
	}

	n := got.Steps()
	for c := 0; c < n; c++ {
		stop := false
		ro := opts
		ro.Resume = &ResumeState{Times: got.Times[:c+1], Hs: got.Hs[:c+1], States: got.States[:c+1],
			NextH: nextH[c], Cuts: cuts[c]}
		ro.AfterStep = func(int, float64, float64, float64, int, []float64) error { stop = true; return nil }
		ro.Stop = func() bool { return stop }
		ref, err := Run(ckt, ro)
		if err != nil && !errors.Is(err, ErrInterrupted) {
			t.Fatalf("step %d: %v", c+1, err)
		}
		if ref.Stats.Factorizations != 1 || ref.Steps() != c+1 {
			t.Fatalf("step %d: reference took %d steps with %d factorizations, want one fresh step", c+1, ref.Steps()-c, ref.Stats.Factorizations)
		}
		if ref.Times[c+1] != got.Times[c+1] {
			t.Fatalf("step %d: time %g, fresh factorization gives %g", c+1, got.Times[c+1], ref.Times[c+1])
		}
		for k, v := range ref.States[c+1] {
			if math.Float64bits(got.States[c+1][k]) != math.Float64bits(v) {
				t.Fatalf("step %d: state[%d] = %x, fresh factorization gives %x",
					c+1, k, math.Float64bits(got.States[c+1][k]), math.Float64bits(v))
			}
		}
	}
}
