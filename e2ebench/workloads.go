package main

import (
	"fmt"
	"math/rand"
	"sort"

	"masc"
	"masc/internal/workload"
)

// spec is one named benchmark workload: how to generate its circuit from
// the seed, and the SimOptions every timed call uses. See README.md for why
// each one was chosen.
type spec struct {
	name string
	// gen builds the dataset for a seed: a seeded ±3% draw of every
	// circuit parameter and a seeded choice of objectives and parameters.
	gen func(seed int64) (*workload.Dataset, error)
	// opts returns the timed call's options; dir is the run's scratch
	// directory inside the checkout (journal, spill files).
	opts func(d *workload.Dataset, dir string) masc.SimOptions
	// freshFactor mirrors the journaled plan in the memory-storage
	// reference (journaling pins TransientOptions.FreshFactorPerStep).
	freshFactor bool
	// threads is the run's GOMAXPROCS: the most threads the call's
	// configuration keeps busy (the serial workloads run their garbage
	// collector on the solver's own thread rather than on a sibling).
	threads int
}

// add20 is the irregular diode net at scale 0.275 (220 nodes, 412 steps).
// Its topology stays the dataset's own (seed 20) and the workload seed
// drives the parameter draw: DiodeNet topology seeds move L+U fill by ±12%
// and sim_s by a 25% quartile spread across seeds (README.md).
func add20(seed int64) (*workload.Dataset, error) {
	d, err := workload.DiodeNet("add20", 220, 412, 8, 40, 20)
	return jitter(d, err, seed)
}

var specs = []spec{
	{
		name: "lu-refactor",
		gen:  add20,
		opts: func(d *workload.Dataset, _ string) masc.SimOptions {
			return masc.SimOptions{TStep: d.Tran.TStep, TStop: d.Tran.TStop, Storage: masc.StorageMASC}
		},
		threads: 1,
	},
	{
		name: "codec-stream",
		// mem_plus at scale 1.25: a 40×29 1T1C array over 500 steps.
		gen: func(seed int64) (*workload.Dataset, error) {
			d, err := workload.MOSRam("mem_plus", 40, 29, 500, 12, 40)
			return jitter(d, err, seed)
		},
		opts: func(d *workload.Dataset, _ string) masc.SimOptions {
			return masc.SimOptions{TStep: d.Tran.TStep, TStop: d.Tran.TStop, Storage: masc.StorageMASC}
		},
		threads: 1,
	},
	{
		name: "capped-windowed",
		// MOS_T8 at scale 0.5: a 19×19 inverter array over 175 steps. The
		// odd step count is deliberate: users' step counts are rarely a
		// multiple of the window count, and the anchored split is measured
		// the way they hit it.
		gen: func(seed int64) (*workload.Dataset, error) {
			d, err := workload.MOSArray("MOS_T8", 19, 19, 175, 10, 40)
			return jitter(d, err, seed)
		},
		opts: func(d *workload.Dataset, dir string) masc.SimOptions {
			return masc.SimOptions{TStep: d.Tran.TStep, TStop: d.Tran.TStop, Storage: masc.StorageMASC,
				MemBudgetBytes: rawTensorBytes(d) / 8, AdjointWindows: 2, AdjointWorkers: 2, DiskDir: dir}
		},
		threads: 2,
	},
	{
		name: "journaled",
		gen:  add20,
		opts: func(d *workload.Dataset, dir string) masc.SimOptions {
			return masc.SimOptions{TStep: d.Tran.TStep, TStop: d.Tran.TStop, Storage: masc.StorageMASC,
				Journal: dir + "/run.journal"}
		},
		freshFactor: true,
		threads:     1,
	},
}

func findSpec(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	names := make([]string, len(specs))
	for i := range specs {
		names[i] = specs[i].name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// rawTensorBytes is the uncompressed Jacobian tensor of the whole run: J and
// C values of every step 0..n (the store's RawBytes).
func rawTensorBytes(d *workload.Dataset) int64 {
	return d.NZBytes(d.Tran.EstimatedSteps() + 1)
}

// jitter applies the seeded perturbation to a generated dataset: every
// parameter moves by a uniform ±3%, and the objectives and
// analysed parameters are drawn afresh (same counts as the dataset).
func jitter(d *workload.Dataset, err error, seed int64) (*workload.Dataset, error) {
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	params := d.Ckt.Params()
	for i := range params {
		params[i].Set(params[i].Get() * (1 + 0.03*(2*rng.Float64()-1)))
	}
	steps := d.Tran.EstimatedSteps()
	var voltages []int32
	for i, v := range d.Ckt.VoltageUnknown {
		if v {
			voltages = append(voltages, int32(i))
		}
	}
	for i := range d.Objectives {
		n := voltages[rng.Intn(len(voltages))]
		d.Objectives[i] = masc.Objective{Name: d.Ckt.Names[n], Node: n, Weight: 1,
			Step: 1 + rng.Intn(steps)}
	}
	d.Params = rng.Perm(len(params))[:len(d.Params)]
	sort.Ints(d.Params)
	return d, nil
}
