package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"masc"
	"masc/internal/adjoint"
	"masc/internal/compress/masczip"
	"masc/internal/jactensor"
	"masc/internal/sparse"
	"masc/internal/transient"
)

// perLayer names every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"transient.wall_s", "s"}, {"transient.step_s.p50", "s"}, {"transient.newton_iters", "count"},
	{"transient.factorizations", "count"}, {"transient.refactorizations", "count"},
	{"transient.steps", "count"}, {"transient.steps_cut", "count"},
	{"lu.factor_s", "s/call"}, {"lu.refactor_s", "s/call"}, {"lu.solve_s", "s/call"},
	{"lu.solvet_multi_s", "s/call"}, {"lu.fill_ratio", "ratio"}, {"lu.pivot_fallbacks", "count"},
	{"lu.factorizations", "count"}, {"lu.refactorizations", "count"}, {"lu.est_share", "ratio"},
	{"circuit.eval_s", "s"}, {"circuit.buildj_s", "s"}, {"circuit.paramsens_s", "s"},
	{"masczip.compress_s", "s"}, {"masczip.decompress_s", "s"}, {"masczip.compress_MBps", "MB/s"},
	{"masczip.decompress_MBps", "MB/s"}, {"masczip.cr", "ratio"},
	{"jactensor.put_s", "s"}, {"jactensor.fetch_s", "s"}, {"jactensor.endforward_s", "s"},
	{"jactensor.puts", "count"}, {"jactensor.fetches", "count"}, {"jactensor.stall_s", "s"},
	{"jactensor.corrupt_blobs", "count"}, {"jactensor.tier_hot_steps", "count"},
	{"jactensor.tier_compressed_steps", "count"}, {"jactensor.tier_disk_steps", "count"},
	{"jactensor.tier_dropped_steps", "count"}, {"jactensor.demotions", "count"},
	{"jactensor.promotions", "count"}, {"jactensor.recomputes", "count"},
	{"diskio.io_s", "s"}, {"diskio.retries", "count"},
	{"adjoint.wall_s", "s"}, {"adjoint.fetch_s", "s"}, {"adjoint.factor_solve_s", "s"},
	{"adjoint.param_eval_s", "s"}, {"adjoint.windows", "count"}, {"adjoint.window_sweep_max_s", "s"},
	{"adjoint.window_imbalance", "ratio"}, {"adjoint.degraded_steps", "count"},
	{"adjoint.recompute_fetch_s", "s"}, {"adjoint.direct_rel_err", "ratio"},
	{"runstate.fsync_s", "s"}, {"runstate.fsyncs", "count"}, {"runstate.journal_bytes", "bytes"},
	{"other_s", "s"}, {"trace.sim_s", "s"}, {"trace.untraced_sim_s", "s"}, {"trace.overhead_s", "s"},
}

// traced is the per-layer run. Each iteration makes one untraced checked
// call, then one traced call whose sensitivities must be bit-identical to
// it, then replays the layers on what the traced call produced. Every
// metric is the median over iterations; the spans are written to spanPath.
func (b *bench) traced(deadline time.Time, spanPath string) (*result, error) {
	tr := newTracer()
	res := &result{}
	var iters []map[string]float64
	for res.attempted == 0 || time.Now().Before(deadline) {
		tr.call++
		plain, dt, _, ok := b.call()
		L, run, err := b.tracedCall(tr, dt.Seconds())
		if err != nil {
			return nil, err
		}
		res.attempted += 2
		if !ok {
			res.failed++
		}
		if plain == nil || !sameBits(run.Sens.DOdp, plain.Sens.DOdp) {
			res.failed++
			fmt.Fprintf(os.Stderr, "e2ebench: traced call's DOdp differs from the untraced call's\n")
		}
		iters = append(iters, L)
	}
	if err := tr.write(spanPath); err != nil {
		return nil, err
	}
	res.metrics = map[string]metric{}
	for _, m := range perLayer {
		vals := make([]float64, len(iters))
		for i, L := range iters {
			v, ok := L[m.name]
			if !ok {
				return nil, fmt.Errorf("traced run did not produce %s", m.name)
			}
			vals[i] = v
		}
		res.metrics[m.name] = metric{median(vals), m.unit}
	}
	res.details = map[string]any{"iterations": len(iters), "spans": tr.len(), "span_file": spanPath}
	return res, nil
}

// captured holds copies of every step's J and C values of a traced call.
type captured struct{ j, c [][]float64 }

func (c *captured) add(J, C *sparse.Matrix) {
	c.j = append(c.j, append([]float64(nil), J.Val...))
	c.c = append(c.c, append([]float64(nil), C.Val...))
}

// tracedCall runs the traced composition of one call and the layer
// replays, and returns the call's per-layer metrics. untraced is the wall
// time of the untraced call just before it.
func (b *bench) tracedCall(tr *tracer, untraced float64) (map[string]float64, *masc.Run, error) {
	L := map[string]float64{}
	var capt captured
	var steps []float64
	runtime.GC()
	var run *masc.Run
	var err error
	if b.composable() {
		run, err = b.composed(tr, L, &capt, &steps)
	} else {
		run, err = b.simulated(tr, L, &capt, &steps)
	}
	if err != nil {
		return nil, nil, err
	}
	L["trace.untraced_sim_s"] = untraced
	L["trace.overhead_s"] = L["trace.sim_s"] - untraced
	L["transient.step_s.p50"] = median(steps)

	ts := run.Tran.Stats
	L["transient.newton_iters"] = float64(ts.NewtonIters)
	L["transient.factorizations"] = float64(ts.Factorizations)
	L["transient.refactorizations"] = float64(ts.Refactorizations)
	L["transient.steps"] = float64(ts.StepsAccepted)
	L["transient.steps_cut"] = float64(ts.StepsCut)

	st := run.TensorStats
	L["jactensor.stall_s"] = st.StallTime.Seconds()
	L["jactensor.corrupt_blobs"] = float64(st.CorruptBlobs)
	if _, ok := L["jactensor.tier_hot_steps"]; !ok {
		L["jactensor.tier_hot_steps"] = float64(st.TierHotSteps)
		L["jactensor.tier_compressed_steps"] = float64(st.TierCompressedSteps)
		L["jactensor.tier_disk_steps"] = float64(st.TierDiskSteps)
		L["jactensor.tier_dropped_steps"] = float64(st.TierDroppedSteps)
	}
	L["jactensor.demotions"] = float64(st.TierDemotions)
	L["jactensor.promotions"] = float64(st.TierPromotions)
	L["jactensor.recomputes"] = float64(st.TierRecomputes)
	L["diskio.io_s"] = st.IOTime.Seconds()
	L["diskio.retries"] = float64(st.DiskRetries)

	sens := run.Sens
	L["adjoint.fetch_s"] = sens.Timing.Fetch.Seconds()
	L["adjoint.factor_solve_s"] = sens.Timing.FactorSolve.Seconds()
	L["adjoint.param_eval_s"] = sens.Timing.ParamEval.Seconds()
	L["adjoint.windows"] = float64(sens.Windows)
	L["adjoint.degraded_steps"] = float64(len(sens.DegradedSteps))
	L["adjoint.direct_rel_err"] = b.directErr
	// A single sweep is its own only window.
	swMax, swSum := L["adjoint.wall_s"], L["adjoint.wall_s"]
	if len(sens.WindowSweepSec) > 0 {
		swMax, swSum = 0, 0
		for _, s := range sens.WindowSweepSec {
			swMax, swSum = max(swMax, s), swSum+s
		}
	}
	L["adjoint.window_sweep_max_s"] = swMax
	L["adjoint.window_imbalance"] = swMax / (swSum / float64(max(1, len(sens.WindowSweepSec))))

	// Layer replays on the call's captured Jacobians and trajectory.
	rid := tr.open("replay", 0)
	defer tr.close(rid)
	luL, err := luReplay(tr, rid, b.d.Ckt, capt.j, len(b.d.Objectives))
	if err != nil {
		return nil, nil, err
	}
	for k, v := range luL {
		L[k] = v
	}
	// Call counts behind lu.est_share: the forward solver's factorizations
	// and Newton solves, and a reverse sweep that factors once and then
	// refactors and multi-solves once per step.
	n := float64(run.Tran.Steps())
	L["lu.factorizations"] = float64(ts.Factorizations) + 1
	L["lu.refactorizations"] = float64(ts.Refactorizations) + n
	est := L["lu.factorizations"]*L["lu.factor_s"] + L["lu.refactorizations"]*L["lu.refactor_s"] +
		float64(ts.NewtonIters)*L["lu.solve_s"] + (n+1)*L["lu.solvet_multi_s"]
	L["lu.est_share"] = est / untraced
	for k, v := range circuitReplay(tr, rid, b.d.Ckt, run.Tran, b.d.Params) {
		L[k] = v
	}
	if L["adjoint.recompute_fetch_s"], err = recomputeReplay(tr, rid, b.d.Ckt, run.Tran); err != nil {
		return nil, nil, err
	}
	if !b.composable() {
		jc, cc, err := codecReplay(tr, rid, b.d.Ckt, capt.j, capt.c)
		if err != nil {
			return nil, nil, err
		}
		codecMetrics(L, jc, cc)
	}
	return L, run, nil
}

// composable reports whether the traced run can compose the call itself:
// a serial, unbudgeted, unjournaled MASC-storage call. Otherwise Simulate
// builds the store (tiered) or the journal itself, and the traced run calls
// Simulate and reads the counters it returns.
func (b *bench) composable() bool {
	o := b.opt
	return o.Storage == masc.StorageMASC && o.MemBudgetBytes == 0 && o.Journal == "" &&
		!o.Async && o.AdjointWorkers <= 1 && o.AdjointWindows <= 1 && o.Workers <= 1
}

// stepHook records one span per accepted forward step from the solver's
// StepCost hook.
func stepHook(tr *tracer, parent *int, steps *[]float64) func(int, time.Duration) {
	return func(_ int, d time.Duration) {
		end := tr.now()
		tr.add("transient.step", *parent, end-int64(d), end)
		*steps = append(*steps, d.Seconds())
	}
}

// composed mirrors Simulate for a serial, unbudgeted, unjournaled MASC
// call — transient.Run capturing into a compressed store, EndForward, the
// adjoint sweep — with timing wrappers on the store and both codecs.
func (b *bench) composed(tr *tracer, L map[string]float64, capt *captured, steps *[]float64) (*masc.Run, error) {
	opt, ckt := b.opt, b.d.Ckt
	from := tr.len()
	root := tr.open("simulate", 0)
	mo := masczip.Options{Workers: 1}
	jc := &timedCodec{Compressor: masczip.New(ckt.JPat, mo), tr: tr}
	cc := &timedCodec{Compressor: masczip.New(ckt.CPat, mo), tr: tr}
	st := &timedStore{CompressedStore: jactensor.NewCompressedStore(jc, cc, ckt.JPat, ckt.CPat), tr: tr}
	defer st.Close() // error paths; the success path checks Close below

	fwd := tr.open("transient.run", root)
	st.parent = fwd
	topt := opt.Transient
	topt.TStep, topt.TStop = opt.TStep, opt.TStop
	topt.StepCost = stepHook(tr, &fwd, steps)
	topt.Capture = func(step int, _ float64, _ []float64, J, C *sparse.Matrix) error {
		capt.add(J, C)
		return st.Put(step, J.Val, C.Val)
	}
	tran, err := transient.Run(ckt, topt)
	L["transient.wall_s"] = tr.close(fwd)
	if err != nil {
		return nil, fmt.Errorf("traced forward: %w", err)
	}
	st.parent = root
	if err := st.EndForward(); err != nil {
		return nil, fmt.Errorf("traced EndForward: %w", err)
	}
	adj := tr.open("adjoint.sensitivities", root)
	st.parent = adj
	sens, err := adjoint.Sensitivities(ckt, tran, st, b.d.Objectives, adjoint.Options{
		Params: b.d.Params, Workers: opt.AdjointWorkers, Windows: opt.AdjointWindows})
	L["adjoint.wall_s"] = tr.close(adj)
	if err != nil {
		return nil, fmt.Errorf("traced adjoint: %w", err)
	}
	stats := st.Stats()
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("traced store close: %w", err)
	}
	wall := tr.close(root)

	sec, cnt := tr.totals(from)
	L["trace.sim_s"] = wall
	L["jactensor.put_s"] = sec["jactensor.put"]
	L["jactensor.fetch_s"] = sec["jactensor.fetch"]
	L["jactensor.endforward_s"] = sec["jactensor.endforward"]
	L["jactensor.puts"] = float64(cnt["jactensor.put"])
	L["jactensor.fetches"] = float64(cnt["jactensor.fetch"])
	L["runstate.fsync_s"], L["runstate.fsyncs"], L["runstate.journal_bytes"] = 0, 0, 0
	L["other_s"] = wall - L["transient.wall_s"] - L["jactensor.endforward_s"] - L["adjoint.wall_s"]
	codecMetrics(L, jc, cc)
	return &masc.Run{Tran: tran, Sens: sens, TensorStats: stats, Storage: opt.Storage}, nil
}

// codecMetrics derives the masczip metrics from a J/C pair of timing
// wrappers and the spans they recorded.
func codecMetrics(L map[string]float64, jc, cc *timedCodec) {
	comp, decomp := jc.compressSec+cc.compressSec, jc.decompressSec+cc.decompressSec
	L["masczip.compress_s"] = comp
	L["masczip.decompress_s"] = decomp
	L["masczip.compress_MBps"] = float64(jc.plainIn+cc.plainIn) / comp / 1e6
	L["masczip.decompress_MBps"] = float64(jc.plainOut+cc.plainOut) / decomp / 1e6
	L["masczip.cr"] = float64(jc.plainIn+cc.plainIn) / float64(jc.encodedOut+cc.encodedOut)
}

// simulated is the traced call where Simulate builds a layer itself (the
// tiered store, the journal): it calls Simulate with a metrics registry and
// the solver's public hooks, and reads the counters the run returns. A
// store Put is the span from the Capture hook's exit to the AfterStep
// hook's entry, the only work the solver does between them.
func (b *bench) simulated(tr *tracer, L map[string]float64, capt *captured, steps *[]float64) (*masc.Run, error) {
	opt := b.opt
	reg := masc.NewRegistry()
	opt.Obs = &masc.Observer{Reg: reg}
	from := tr.len()
	start := tr.now()
	root := tr.open("simulate", 0)
	fwd := tr.open("transient.run", root)
	var captureEnd, fwdEnd int64
	opt.Transient.StepCost = stepHook(tr, &fwd, steps)
	opt.Transient.Capture = func(_ int, _ float64, _ []float64, J, C *sparse.Matrix) error {
		capt.add(J, C)
		captureEnd = tr.now()
		return nil
	}
	opt.Transient.AfterStep = func(int, float64, float64, float64, int, []float64) error {
		fwdEnd = tr.now()
		tr.add("jactensor.put", fwd, captureEnd, fwdEnd)
		return nil
	}
	run, err := masc.Simulate(b.d.Ckt, opt, b.d.Objectives, b.d.Params)
	wall := tr.close(root)
	tr.end(fwd, fwdEnd)
	if err != nil {
		return nil, fmt.Errorf("traced Simulate: %w", err)
	}
	sec, cnt := tr.totals(from)
	kind := "compressed"
	if opt.MemBudgetBytes > 0 {
		kind = "tiered"
	}
	L["trace.sim_s"] = wall
	L["transient.wall_s"] = float64(fwdEnd-start) / 1e9
	L["adjoint.wall_s"] = run.Sens.Timing.Total.Seconds()
	L["jactensor.put_s"] = sec["jactensor.put"]
	L["jactensor.puts"] = float64(cnt["jactensor.put"])
	L["jactensor.fetch_s"] = run.Sens.Timing.Fetch.Seconds()
	L["jactensor.fetches"] = reg.Counter("masc_store_fetch_total", "", "store", kind).Value()
	if kind == "tiered" {
		// The store's own tier snapshot is taken after the sweep released
		// every step, so it reads zero; the placement the sweep found is
		// the count of steps it promoted from each tier.
		promoted := 0.0
		for _, t := range []string{"compressed", "disk", "dropped"} {
			v := reg.Counter("masc_store_tier_promotions_total", "", "tier", t).Value()
			L["jactensor.tier_"+t+"_steps"] = v
			promoted += v
		}
		L["jactensor.tier_hot_steps"] = float64(run.Tran.Steps()+1) - promoted
	}
	// EndForward runs between the last step and the sweep with no hook
	// around it; its time stays in other_s.
	L["jactensor.endforward_s"] = 0
	L["runstate.fsync_s"] = reg.Gauge("masc_journal_fsync_seconds", "").Value()
	L["runstate.fsyncs"] = reg.Counter("masc_journal_fsyncs_total", "").Value()
	L["runstate.journal_bytes"] = 0
	if opt.Journal != "" {
		fi, err := os.Stat(opt.Journal)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		L["runstate.journal_bytes"] = float64(fi.Size())
	}
	L["other_s"] = wall - L["transient.wall_s"] - L["adjoint.wall_s"]
	return run, nil
}
