package adjoint

import (
	"fmt"
	"slices"
	"testing"

	"masc/internal/compress/masczip"
	"masc/internal/faultinject"
	"masc/internal/jactensor"
	"masc/internal/obs"
	"masc/internal/sparse"
	"masc/internal/transient"
)

// TestLiveObjectivesBitIdentical pins live-objective skipping: a sweep that
// works only on objectives whose top step is at or above the current step
// must reproduce the dense sweep (every objective live at every step) bit
// for bit — DOdp and DegradedSteps — for every objective shape, integrator,
// worker count, window count and Jacobian source, including fault-degraded
// stores that walk the recompute ladder. MASC_ADJOINT_WORKERS and
// MASC_ADJOINT_WINDOWS extend the worker and window counts.
func TestLiveObjectivesBitIdentical(t *testing.T) {
	for _, method := range []transient.Method{transient.MethodBE, transient.MethodTrap} {
		t.Run(string(method), func(t *testing.T) {
			ckt, b := diodeRect(t)
			out, err := b.NodeIndex("out")
			if err != nil {
				t.Fatal(err)
			}
			in, err := b.NodeIndex("in")
			if err != nil {
				t.Fatal(err)
			}
			var js, cs [][]float64
			opt := transient.Options{TStop: 5e-4, TStep: 5e-6, Method: method}
			opt.Capture = func(_ int, _ float64, _ []float64, J, C *sparse.Matrix) error {
				js = append(js, append([]float64(nil), J.Val...))
				cs = append(cs, append([]float64(nil), C.Val...))
				return nil
			}
			res, err := transient.Run(ckt, opt)
			if err != nil {
				t.Fatal(err)
			}
			n := res.Steps()

			shapes := []struct {
				name string
				objs []Objective
			}{
				{"all-final", []Objective{
					{Node: out, Weight: 1},
					{Node: in, Weight: -2},
					{Node: out, Weight: 0.5, Step: n},
				}},
				{"all-step1", []Objective{
					{Node: out, Weight: 1, Step: 1},
					{Node: in, Weight: 3, Step: 1},
				}},
				{"mixed-integral", []Objective{
					{Node: out, Weight: 1, Step: 1},
					{Node: out, Weight: 0.5, Step: n / 2},
					{Node: in, Weight: 2, Integral: true},
					// Integral ignores Step: still live at every step.
					{Node: out, Weight: -3, Integral: true, Step: 3},
					{Node: out, Weight: -1, Step: n / 4},
					{Node: out, Weight: 1},
				}},
				{"beyond-n", []Objective{
					{Node: out, Weight: 1, Step: n + 7},
					{Node: in, Weight: 1, Step: n / 3},
				}},
			}
			sources := []struct {
				name     string
				mk       func() jactensor.Store
				degraded bool
			}{
				{"memory", func() jactensor.Store { return jactensor.NewMemStore() }, false},
				{"masc", func() jactensor.Store {
					st := jactensor.NewCompressedStore(
						masczip.New(ckt.JPat, masczip.Options{}), masczip.New(ckt.CPat, masczip.Options{}),
						ckt.JPat, ckt.CPat)
					st.SetAnchorEvery(max(n/8, 1))
					return st
				}, false},
				{"degraded", func() jactensor.Store {
					st := jactensor.NewMemStore()
					st.SetFault(faultinject.New(faultinject.Profile{Seed: 11, BitFlipOneIn: 10}))
					return st
				}, true},
			}
			// Each sweep gets a freshly filled store: the degradation ladder
			// repairs the store it walks, and stores free steps on Release.
			fill := func(mk func() jactensor.Store) jactensor.Store {
				st := mk()
				for i := range js {
					if err := st.Put(i, js[i], cs[i]); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.EndForward(); err != nil {
					t.Fatal(err)
				}
				return st
			}

			for _, sh := range shapes {
				ref, err := Sensitivities(ckt, res, fill(sources[0].mk), sh.objs,
					ForceAllLive(Options{Workers: 1, SingleRHS: true}))
				if err != nil {
					t.Fatal(err)
				}
				for _, src := range sources {
					for _, w := range withEnvCounts(t, "MASC_ADJOINT_WORKERS", 1, 2, 3) {
						for _, W := range withEnvCounts(t, "MASC_ADJOINT_WINDOWS", 1, 2, 3) {
							label := fmt.Sprintf("%s/%s/workers=%d/windows=%d", sh.name, src.name, w, W)
							aopt := Options{Workers: w, Windows: W, SingleRHS: w == 1 && W == 2}
							want, err := Sensitivities(ckt, res, fill(src.mk), sh.objs, ForceAllLive(aopt))
							if err != nil {
								t.Fatalf("%s dense: %v", label, err)
							}
							got, err := Sensitivities(ckt, res, fill(src.mk), sh.objs, aopt)
							if err != nil {
								t.Fatalf("%s live: %v", label, err)
							}
							requireBitIdentical(t, label, want, got)
							requireBitIdentical(t, label+" vs serial memory", ref, got)
							if !slices.Equal(want.DegradedSteps, got.DegradedSteps) {
								t.Fatalf("%s: degraded steps %v, dense %v", label, got.DegradedSteps, want.DegradedSteps)
							}
							if src.degraded && len(got.DegradedSteps) == 0 {
								t.Fatalf("%s: faults were injected but no step degraded", label)
							}
						}
					}
				}
			}
		})
	}
}

// TestLiveObjectiveSolveCount checks that the skipping happens: the solve
// counter reads one per live objective per step, the dense sweep's K·(n+1)
// only when every objective is live everywhere.
func TestLiveObjectiveSolveCount(t *testing.T) {
	ckt, b := rcLadder(t)
	node, err := b.NodeIndex("n6")
	if err != nil {
		t.Fatal(err)
	}
	st := jactensor.NewMemStore()
	res, err := transient.Run(ckt, captureInto(transient.Options{TStop: 2e-4, TStep: 2e-6}, st))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.EndForward(); err != nil {
		t.Fatal(err)
	}
	n := res.Steps()
	objs := []Objective{
		{Node: node, Weight: 1, Step: 1},        // live at steps 0..1
		{Node: node, Weight: 1, Step: n / 2},    // 0..n/2
		{Node: node, Weight: 1, Integral: true}, // 0..n
		{Node: node, Weight: 1, Step: n + 3},    // clamps to n
	}
	solves := func(opt Options) float64 {
		o := &obs.Observer{Reg: obs.NewRegistry()}
		opt.Obs = o
		if _, err := Sensitivities(ckt, res, keepAll{st}, objs, opt); err != nil {
			t.Fatal(err)
		}
		return o.Registry().Counter("masc_adjoint_objective_solves_total", "").Value()
	}
	if got, want := solves(Options{}), float64(2+(n/2+1)+2*(n+1)); got != want {
		t.Fatalf("live sweep solved %v systems, want %v", got, want)
	}
	if got, want := solves(ForceAllLive(Options{})), float64(len(objs)*(n+1)); got != want {
		t.Fatalf("dense sweep solved %v systems, want %v", got, want)
	}
}
