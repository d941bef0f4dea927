package main

import "time"

// Host-speed calibration. On a shared host the same call runs 15–40%
// slower for stretches of seconds to minutes (contention for the physical
// core; per-call user time tracks wall time, so it is not scheduling). A
// median over one run cannot remove a drift that outlasts the run, so every
// time the benchmark reports is scaled to a reference host speed: a fixed
// gather-multiply-add kernel, independent of the program, runs between
// consecutive measured intervals, and an interval of wall time w bracketed
// by kernel times k0 and k1 is reported as w × refKernelSec / ((k0+k1)/2).
// The raw wall times are kept in the provenance record.
//
// On the 2-vCPU host the benchmark was tuned on, one 240 s run of
// lu-refactor had per-call times of 0.5–0.93 s; the medians of its 20 s
// windows spread by 30% between quartiles raw and by 6% scaled by the
// kernel run before each call. Across ten 20 s runs per workload, scaling
// cut the quartile spread of median sim_s from 0.15–0.41 to 0.06–0.11.

// refKernelSec is the kernel's nominal time: the reported seconds are
// seconds on a host that runs the kernel in exactly this long.
const refKernelSec = 0.01

// hostClock owns the kernel's 1.3 MB working set and the last probe.
type hostClock struct {
	x, y []float64
	idx  []int32
	last float64 // kernel time of the most recent probe
}

func newHostClock() *hostClock {
	const n = 1 << 16
	h := &hostClock{x: make([]float64, n), y: make([]float64, n), idx: make([]int32, n)}
	for i := range h.x {
		h.x[i] = float64(i%97) * 0.5
		h.idx[i] = int32((i * 40503) % n)
	}
	h.reset()
	return h
}

// reset probes the host, starting a new measured interval.
func (h *hostClock) reset() { h.last = h.kernel() }

// kernel runs the fixed workload once and returns its wall time.
func (h *hostClock) kernel() float64 {
	t0 := time.Now()
	for r := 0; r < 60; r++ {
		for i, j := range h.idx {
			h.y[i] = h.y[i]*0.999 + 1.0001*h.x[j]
		}
	}
	return time.Since(t0).Seconds()
}

// scale probes the host again and returns the reference-speed equivalent
// of an interval of w seconds that ran since the previous probe.
func (h *hostClock) scale(w float64) float64 {
	k := h.kernel()
	f := refKernelSec / ((h.last + k) / 2)
	h.last = k
	return w * f
}
