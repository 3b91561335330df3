package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMatMulKernels times the three kernels behind MatMul at the
// ResMLP layer shape, for a training batch (32 rows) and an evaluation
// batch (1024), on a dense a and on one with the ≈ 50 % zeros a ReLU
// leaves, on every path this host has (avx2, then go: the portable loops).
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

// BenchmarkResMLPStep is one worker's compute for one iteration of the
// train-live-resmlp workload (train.Cases[2]: 64→192, two residual blocks,
// 50 classes, batch 32, momentum SGD, P = 4) as the trainer runs it —
// packed parameters, one clear of the grad slab, loss, backward, the
// update with 1/P folded in — with the synchronization left out (the slab
// stands in for the synchronized gradient), on every path this host has.
func BenchmarkResMLPStep(b *testing.B) {
	for _, p := range hostPaths() {
		b.Run(pathName(p), func(b *testing.B) {
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
			b.ReportAllocs()
			b.ResetTimer()
			onPath(p, func() {
				for i := 0; i < b.N; i++ {
					clear(grad)
					loss, _ := m.Loss(batch)
					loss.Backward()
					opt.StepScaled(m.Params(), grad, 1.0/workers)
				}
			})
		})
	}
}
