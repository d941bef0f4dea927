package circuit_test

import (
	"testing"

	"masc/internal/adjoint"
	"masc/internal/circuit"
	"masc/internal/transient"
	"masc/internal/verify"
	"masc/internal/workload"
)

// TestJPermFillCeiling guards the ordering's fill on every Table-2 dataset at
// scale 0.1: nnz(L+U)/nnz(J) of the first forward factorization must stay at
// or below a ceiling set 5% above the AMD value noted on each row; the RCM
// value is what the ordering AMD replaced gave.
func TestJPermFillCeiling(t *testing.T) {
	ceiling := map[string]float64{
		"add20":    2.05, // AMD 1.956, RCM 3.57
		"smult20":  1.80, // AMD 1.716, RCM 1.98
		"mem_plus": 1.23, // AMD 1.174, RCM 1.52
		"MOS_T5":   2.53, // AMD 2.409, RCM 4.85
		"MOS_T7":   1.21, // AMD 1.154, RCM 1.46
		"MOS_T8":   2.25, // AMD 2.141, RCM 3.10
		"MOS_T10":  1.20, // AMD 1.141, RCM 1.43
	}
	for _, name := range workload.Table2Names() {
		d, err := workload.Build(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := transient.Run(d.Ckt, d.Tran)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Stats.FillRatio; got > ceiling[name] {
			t.Errorf("%s: fill ratio %.3f above its ceiling %.2f", name, got, ceiling[name])
		}
	}
}

// TestCrossOrderingAccuracy checks the AMD-ordered adjoint against the same
// run factored in natural order and against the direct method, on every
// Table-2 dataset at scale 0.1, within the verification harness's
// DirectTol under its noise gates. The orderings round differently, so the
// runs are not bit-identical; a wrong ordering or pivot choice would move
// sensitivities far beyond the tolerance.
func TestCrossOrderingAccuracy(t *testing.T) {
	for _, name := range workload.Table2Names() {
		t.Run(name, func(t *testing.T) {
			amd := adjointRun(t, name, false)
			natural := adjointRun(t, name, true)
			d := amd.d
			dir, err := adjoint.DirectSensitivities(d.Ckt, amd.tr, d.Objectives, adjoint.Options{Params: d.Params})
			if err != nil {
				t.Fatal(err)
			}
			for _, other := range []struct {
				label string
				dodp  [][]float64
			}{{"natural order", natural.sens.DOdp}, {"direct method", dir.DOdp}} {
				e, o, k := verify.SensitivityErr(d.Ckt, amd.tr, d.Objectives, amd.sens.Params, amd.sens.DOdp, other.dodp)
				t.Logf("vs %s: max rel err %.3g", other.label, e)
				if e > verify.DefaultDirectTol {
					t.Errorf("AMD vs %s: obj %d param %d: %g vs %g (rel %.3g > %g)",
						other.label, o, k, amd.sens.DOdp[o][k], other.dodp[o][k], e, verify.DefaultDirectTol)
				}
			}
		})
	}
}

type orderedRun struct {
	d    *workload.Dataset
	tr   *transient.Result
	sens *adjoint.Result
}

func adjointRun(t *testing.T, name string, natural bool) orderedRun {
	t.Helper()
	d, err := workload.Build(name, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if natural {
		circuit.UseNaturalOrder(d.Ckt)
		if d.Ckt.JPerm() != nil {
			t.Fatal("natural order requested after the circuit's ordering was fixed")
		}
	}
	tr, err := transient.Run(d.Ckt, d.Tran)
	if err != nil {
		t.Fatal(err)
	}
	sens, err := adjoint.Sensitivities(d.Ckt, tr, adjoint.NewRecomputeSource(d.Ckt, tr), d.Objectives, adjoint.Options{Params: d.Params})
	if err != nil {
		t.Fatal(err)
	}
	return orderedRun{d, tr, sens}
}
