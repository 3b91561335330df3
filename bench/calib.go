package main

import (
	"slices"
	"sync"
	"time"
)

// calRefMs is the calibration kernel's wall time on the host the baseline
// was recorded on. Every wall-clock metric is reported as
// raw × calRefMs / (kernel time measured around the block), so a figure
// means "milliseconds on the reference host" and a slower or busier host
// scales the kernel and the workload together. Frozen: changing it rescales
// every calibrated metric and invalidates comparisons against the parent.
const calRefMs = 33.0

// calibrate converts a raw duration into calibrated reference-host units:
// raw scaled by the ratio of the frozen reference kernel time to the mean
// of the kernel's time just before and just after the measured block.
func calibrate(raw, calBeforeMs, calAfterMs float64) float64 {
	return raw * calFactor(calBeforeMs, calAfterMs)
}

// calFactor is the multiplier calibrate applies; a non-positive kernel
// reading (never produced by calKernel.run) leaves the figure unscaled.
func calFactor(calBeforeMs, calAfterMs float64) float64 {
	mean := (calBeforeMs + calAfterMs) / 2
	if mean <= 0 {
		return 1
	}
	return calRefMs / mean
}

const (
	calLanes  = 2       // one per core of the reference host
	calFloats = 2 << 20 // 8 MB src + 8 MB dst per lane: 16 MB per pass
	calPasses = 4
	calKeys   = 256 << 10
)

// calKernel is the fixed memcpy + sort kernel: calLanes goroutines each
// stream calPasses fused add-copy passes over 16 MB and then sort 256k
// keys. The mix mirrors what a synchronization does on this repository's
// hot path (dense-vector streaming plus selection), so host slowdowns that
// hit one more than the other still move the kernel roughly like the
// workloads. Buffers are allocated once so the kernel adds a constant to
// heap_mb and nothing to allocs_per_op.
type calKernel struct {
	src, dst [calLanes][]float32
	keys     [calLanes][]uint32
}

// newCalKernel builds the kernel; quick shrinks it 16-fold for the smoke
// sizes, whose figures are not comparable with anything anyway.
func newCalKernel(quick bool) *calKernel {
	k := &calKernel{}
	shrink := 1
	if quick {
		shrink = 16
	}
	for l := 0; l < calLanes; l++ {
		k.src[l] = make([]float32, calFloats/shrink)
		k.dst[l] = make([]float32, calFloats/shrink)
		k.keys[l] = make([]uint32, calKeys/shrink)
		for i := range k.src[l] {
			k.src[l][i] = float32(i&1023) * 0.001
		}
	}
	k.run() // fault the buffers in, so the first reading is not a cold one
	return k
}

// read is one calibration reading: the faster of two back-to-back kernel
// runs, because the disturbances on a shared host are bursts that slow a
// run down and never speed one up. The caller must hold every worker idle
// (between two barriers).
func (k *calKernel) read() float64 { return min(k.run(), k.run()) }

// run executes the kernel once and returns its wall time in milliseconds.
func (k *calKernel) run() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for l := 0; l < calLanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			src, dst, keys := k.src[l], k.dst[l], k.keys[l]
			for p := 0; p < calPasses; p++ {
				for i, v := range src {
					dst[i] = dst[i]*0.5 + v
				}
			}
			x := uint32(2463534242) // xorshift32: the same keys every run
			for i := range keys {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				keys[i] = x
			}
			slices.Sort(keys)
		}(l)
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
