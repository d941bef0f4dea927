// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload through the public masc.Simulate call in a closed loop
// (back-to-back calls from one client) for a fixed time, checks every
// call's sensitivities bit-for-bit against a memory-storage reference, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics of a
// separate traced run (--trace 1) as the last line of standard output:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash e2ebench/run.sh --workload lu-refactor --seed 1 --seconds 15 --trace 0
//
// README.md says why each workload was chosen and which layer metric should
// move which end-to-end metric on which workload.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"masc"
	"masc/internal/workload"
)

// setupReps is how many times a run repeats its whole set-up; setup_s is
// the median.
const setupReps = 3

// outDir holds everything a run writes: journals and spill files while it
// runs, span dumps and provenance records afterwards.
const outDir = ".bench_out"

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name: lu-refactor, codec-stream, capped-windowed or journaled")
	seed := flag.Int64("seed", 1, "workload seed: drives the parameter draw and the objective and parameter choice")
	seconds := flag.Float64("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: --trace must be 0 or 1\n")
		return 2
	}
	s, err := findSpec(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 2
	}
	if s.threads > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "e2ebench: %s needs %d threads; nproc is %d\n", s.name, s.threads, runtime.NumCPU())
		return 2
	}
	runtime.GOMAXPROCS(s.threads)

	tag := fmt.Sprintf("%s-seed%d-trace%d", s.name, *seed, *trace)
	scratch := filepath.Join(outDir, tag+".scratch")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	b, err := setup(s, *seed, scratch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: set-up: %v\n", s.name, *seed, err)
		return 1
	}
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	var res *result
	if *trace == 0 {
		res, err = b.timed(deadline)
	} else {
		res, err = b.traced(deadline, filepath.Join(outDir, tag+".spans.jsonl"))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %v\n", s.name, *seed, err)
		return 1
	}

	failed, attempted := res.failed+b.setupFailed, res.attempted+b.setupChecks
	res.details["fail_frac"] = float64(failed) / float64(attempted)
	prov := b.provenance(*seed)
	prov["details"] = res.details
	line, err := json.Marshal(prov)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(filepath.Join(outDir, tag+".json"), append(line, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))

	out, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   res.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// bench is one workload instance after set-up: the generated circuit, the
// timed call's options and the reference every call is checked against.
type bench struct {
	spec *spec
	d    *workload.Dataset
	opt  masc.SimOptions
	// ref is the memory-storage reference of the same seed; every timed
	// call's DOdp must match it bit for bit.
	ref *masc.Run
	// directErr is the reference's largest relative disagreement with
	// adjoint.DirectSensitivities.
	directErr float64
	// clock scales measured intervals to the reference host speed.
	clock *hostClock
	// setupSec holds each set-up repetition's time at reference host
	// speed, setupWall its wall time.
	setupSec, setupWall []float64
	// setupChecks counts the output checks set-up made; setupFailed how
	// many of them failed.
	setupChecks, setupFailed int
	// luNNZ is nnz(L+U) of the reference's final-step Jacobian under the
	// circuit's column ordering.
	luNNZ int
}

// setup generates the workload, builds its circuit, computes the
// memory-storage reference and warms up with one checked call of the timed
// configuration — setupReps times, each from scratch, timing each
// repetition. The last repetition's instance is the one timed. Once, after
// the timed repetitions, the reference is checked against the direct
// method.
func setup(s *spec, seed int64, scratch string) (*bench, error) {
	b := &bench{spec: s, clock: newHostClock()}
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		d, err := s.gen(seed)
		if err != nil {
			return nil, err
		}
		ro := masc.SimOptions{TStep: d.Tran.TStep, TStop: d.Tran.TStop, Storage: masc.StorageMemory}
		ro.Transient.FreshFactorPerStep = s.freshFactor
		ref, err := masc.Simulate(d.Ckt, ro, d.Objectives, d.Params)
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		opt := s.opts(d, scratch)
		warm, err := masc.Simulate(d.Ckt, opt, d.Objectives, d.Params)
		if err != nil {
			return nil, fmt.Errorf("warm-up call: %w", err)
		}
		wall := time.Since(t0).Seconds()
		b.setupWall = append(b.setupWall, wall)
		b.setupSec = append(b.setupSec, b.clock.scale(wall))
		b.setupChecks++
		if !sameBits(warm.Sens.DOdp, ref.Sens.DOdp) {
			b.setupFailed++
			fmt.Fprintf(os.Stderr, "e2ebench: set-up %d: warm-up call differs from the reference\n", r)
		}
		if b.ref != nil {
			b.setupChecks++
			if !sameBits(ref.Sens.DOdp, b.ref.Sens.DOdp) {
				b.setupFailed++
				fmt.Fprintf(os.Stderr, "e2ebench: set-up %d: reference differs from set-up 0's; generation is not a function of the seed\n", r)
			}
		}
		b.d, b.opt, b.ref = d, opt, ref
	}
	dir, err := masc.DirectSensitivities(b.d.Ckt, b.ref.Tran, b.d.Objectives, b.d.Params)
	if err != nil {
		return nil, fmt.Errorf("direct method: %w", err)
	}
	b.directErr = directRelErr(b.ref.Tran, b.d.Objectives, b.d.Params, b.d.Ckt, b.ref.Sens.DOdp, dir.DOdp)
	b.setupChecks++
	if b.directErr > directTol {
		b.setupFailed++
		fmt.Fprintf(os.Stderr, "e2ebench: reference vs direct method: rel err %.3g > %g\n", b.directErr, directTol)
	}
	b.luNNZ = luNNZ(b.d.Ckt, b.ref)
	return b, nil
}

// call runs one untraced Simulate and reports whether its sensitivities
// match the reference bit for bit.
func (b *bench) call() (*masc.Run, time.Duration, uint64, bool) {
	runtime.GC() // every call starts from a collected heap
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	run, err := masc.Simulate(b.d.Ckt, b.opt, b.d.Objectives, b.d.Params)
	dt := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: call failed: %v\n", err)
		return nil, dt, m1.TotalAlloc - m0.TotalAlloc, false
	}
	if !sameBits(run.Sens.DOdp, b.ref.Sens.DOdp) {
		fmt.Fprintf(os.Stderr, "e2ebench: call's DOdp differs from the memory-storage reference\n")
		return run, dt, m1.TotalAlloc - m0.TotalAlloc, false
	}
	return run, dt, m1.TotalAlloc - m0.TotalAlloc, true
}

// result is one run's outcome in the shape of the final output line.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	details           map[string]any
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timed is the end-to-end run: back-to-back untraced calls until the
// deadline, at least one.
func (b *bench) timed(deadline time.Time) (*result, error) {
	res := &result{}
	var sim, wall, peak, cr, alloc []float64
	b.clock.reset()
	for res.attempted == 0 || time.Now().Before(deadline) {
		run, dt, allocated, ok := b.call()
		res.attempted++
		if !ok {
			res.failed++
		}
		wall = append(wall, dt.Seconds())
		sim = append(sim, b.clock.scale(dt.Seconds()))
		alloc = append(alloc, float64(allocated))
		if run != nil {
			st := run.TensorStats
			peak = append(peak, float64(st.PeakResident))
			if st.StoredBytes > 0 {
				cr = append(cr, float64(st.RawBytes)/float64(st.StoredBytes))
			}
		}
	}
	if len(peak) == 0 || len(cr) == 0 {
		return nil, errors.New("no call produced store statistics")
	}
	tail, tailPct, beyond := tailOf(sim)
	res.metrics = map[string]metric{
		"sim_s":            {median(sim), "s"},
		"sim_tail_s":       {tail, "s"},
		"store_peak_bytes": {median(peak), "bytes"},
		"cr":               {median(cr), "ratio"},
		"alloc_bytes":      {median(alloc), "bytes"},
		"setup_s":          {median(b.setupSec), "s"},
	}
	res.details = map[string]any{
		"samples":          len(sim),
		"sim_s_all":        sim,
		"sim_wall_s_all":   wall,
		"sim_wall_s":       median(wall),
		"setup_wall_s_all": b.setupWall,
		"ref_kernel_s":     refKernelSec,
		"sim_tail_pct":     tailPct,
		"sim_tail_beyond":  beyond,
		"setup_s_all":      b.setupSec,
		"direct_rel_err":   b.directErr,
		"setup_failed":     b.setupFailed,
		"clients":          1,
	}
	return res, nil
}

// provenance describes the host, the build and the workload instance.
func (b *bench) provenance(seed int64) map[string]any {
	rev, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	d := b.d
	return map[string]any{
		"workload":         b.spec.name,
		"seed":             seed,
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go_version":       runtime.Version(),
		"git_commit":       rev,
		"git_modified":     modified,
		"source_sha256":    sourceDigest(),
		"unknowns":         d.Ckt.N,
		"nnz_j":            d.Ckt.JPat.NNZ(),
		"nnz_lu":           b.luNNZ,
		"steps":            b.ref.Tran.Steps(),
		"raw_tensor_bytes": b.ref.TensorStats.RawBytes,
		"objectives":       len(d.Objectives),
		"params":           len(d.Params),
	}
}

// sourceDigest hashes the program's Go sources (everything outside the
// benchmark and dot-directories), standing in for the commit when the
// checkout is not a git repository.
func sourceDigest() string {
	var files []string
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "e2ebench") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// median of xs (xs is not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf returns the sample at the highest percentile that still has at
// least ten samples above it, that percentile, and how many samples lie
// above it. With fewer than eleven samples no percentile qualifies and the
// minimum is reported (every other sample lies above it).
func tailOf(xs []float64) (v, pct float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	j := max(0, len(s)-11)
	if len(s) > 1 {
		pct = 100 * float64(j) / float64(len(s)-1)
	}
	return s[j], pct, len(s) - 1 - j
}
