package nn

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkMatMulKernels times the three kernels behind MatMul at the
// ResMLP layer shape, for a training batch (32 rows) and an evaluation
// batch (1024), on a dense a and on one with the ≈ 50 % zeros a ReLU
// leaves, on every path this host has (avx512, avx2, then go: the portable
// loops).
func BenchmarkMatMulKernels(b *testing.B) {
	for _, p := range hostPaths() {
		for _, rows := range []int{32, 1024} {
			for _, zeroPct := range []int{0, 50} {
				const k, c = 192, 192
				rng := rand.New(rand.NewSource(1))
				a, w, og := randInput(rng, rows, k), randInput(rng, k, c), randInput(rng, rows, c)
				for i := range a {
					if rng.Intn(100) < zeroPct {
						a[i] = 0
					}
				}
				out, ag, wg := make([]float32, rows*c), make([]float32, rows*k), make([]float32, k*c)
				name := fmt.Sprintf("%s/%%s/%dx%dx%d/zeros=%d", pathName(p), rows, k, c, zeroPct)
				run := func(kernel string, f func()) {
					b.Run(fmt.Sprintf(name, kernel), func(b *testing.B) {
						onPath(p, func() {
							for i := 0; i < b.N; i++ {
								f()
							}
						})
					})
				}
				run("forward", func() {
					clear(out)
					matmulInto(out, a, w, rows, k, c)
				})
				if zeroPct == 0 { // dA never reads a
					run("dA", func() { matmulGradA(ag, og, w, rows, k, c) })
				}
				run("dB", func() { matmulGradB(wg, a, og, rows, k, c) })
			}
		}
	}
}

// newResMLPStep builds one worker's compute for one iteration of the
// train-live-resmlp workload (train.Cases[2]: 64→192, two residual blocks,
// 50 classes, batch 32, momentum SGD, P = 4) as the trainer runs it —
// packed parameters, one clear of the grad slab, loss, backward, the
// update with 1/P folded in — with the synchronization left out (the slab
// stands in for the synchronized gradient).
func newResMLPStep() (step func()) {
	rng := rand.New(rand.NewSource(1))
	m := NewResMLPClassifier(rng, 64, 192, 2, 50)
	_, grad := PackParams(m.Params())
	opt := NewSGD(0.05, 0.9)
	const batchSize, workers = 32, 4
	labels := make([]int, batchSize)
	for i := range labels {
		labels[i] = rng.Intn(50)
	}
	batch := &Batch{X: randInput(rng, batchSize, 64), Features: 64, Labels: labels}
	return func() {
		clear(grad)
		loss, _ := m.Loss(batch)
		loss.Backward()
		opt.StepScaled(m.Params(), grad, 1.0/workers)
	}
}

// BenchmarkResMLPStep times newResMLPStep on every path this host has.
func BenchmarkResMLPStep(b *testing.B) {
	for _, p := range hostPaths() {
		b.Run(pathName(p), func(b *testing.B) {
			step := newResMLPStep()
			step() // the first pass fills the tape
			b.ReportAllocs()
			b.ResetTimer()
			onPath(p, func() {
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		})
	}
}

// BenchmarkResMLPEval scores one rank's shard of train-live-resmlp's
// held-out batch (1024 rows at P = 4: 256) as the trainer does, in chunks
// of the training batch's 32 rows through the model that trains, on every
// path this host has.
func BenchmarkResMLPEval(b *testing.B) {
	const rows, chunk = 256, 32
	for _, p := range hostPaths() {
		b.Run(pathName(p), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			m := NewResMLPClassifier(rng, 64, 192, 2, 50)
			labels := make([]int, rows)
			for i := range labels {
				labels[i] = rng.Intn(50)
			}
			shard := &Batch{X: randInput(rng, rows, 64), Features: 64, Labels: labels}
			score := func() (sum Mean) {
				for lo := 0; lo < rows; lo += chunk {
					loss, _ := m.Loss(shard.Rows(lo, lo+chunk))
					sum.Sum += loss.Means()[0].Sum
					sum.Count += loss.Means()[0].Count
				}
				return sum
			}
			score() // the first pass fills the tape
			b.ReportAllocs()
			b.ResetTimer()
			onPath(p, func() {
				for i := 0; i < b.N; i++ {
					score()
				}
			})
		})
	}
}

// stepAllocs is testing.AllocsPerRun that also returns the bytes: the
// heap allocations and bytes per call of f, averaged over runs calls
// after one warm-up call and rounded down.
func stepAllocs(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestResMLPStepAllocs pins newResMLPStep's heap allocations on every
// path this host has, and bounds its bytes. The step runs on one
// goroutine, so the count is exact: an allocation added to a kernel, the
// update or the graph fails it. The bytes are bounded rather than pinned
// because the runtime's own goroutines may allocate a few while the slow
// go path runs (3 bytes a step, seen); any buffer of the step's is larger
// than the bound. It is the training half of the allocation gate
// (TestWarmSyncAllocs in the root package).
func TestResMLPStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: the tape keeps two generations and poisons one per pass, so the steps measured are not the ones a normal build runs")
	}
	const wantAllocs, maxBytes = 0, 64
	for _, p := range hostPaths() {
		step := newResMLPStep()
		var allocs, bytes uint64
		onPath(p, func() { allocs, bytes = stepAllocs(10, step) })
		if allocs != wantAllocs || bytes > maxBytes {
			t.Errorf("%s: %d allocs, %d bytes per step, committed %d allocs and at most %d bytes",
				pathName(p), allocs, bytes, wantAllocs, maxBytes)
		}
	}
}
