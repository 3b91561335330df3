package nn

import "spardl/internal/cpuid"

// Declarations of the passes in matmul_amd64.s. They read and write only
// the slices they are given, up to len(dst) (rows4AVX2, row1AVX2, addAVX2,
// accAVX2, reluAVX2), len(w) (sgdAVX2), len(grad) (reluGradAVX2) or len(b0)
// (dotsAVX2, dots16AVX512); the callers slice every operand to that
// length, and t to eight or sixteen times it. panel4x32AVX512 reads and
// writes dst[:4c], reads src[:nt·c] and coef[r·rs+t·ts] for r < 4, t < nt.

func panel4x32AVX512(dst, coef, src []float32, c, nt, rs, ts int)

func rows4AVX2(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)

func row1AVX2(dst, b []float32, a float32)

func dotsAVX2(s, t, b0, b1, b2, b3 []float32)

func dots16AVX512(s, t, b0, b1, b2, b3 []float32)

func sgdAVX2(w, vel, g []float32, mu, scale, lr float32)

func addAVX2(dst, a, b []float32)

func accAVX2(dst, src []float32)

func reluAVX2(dst, src []float32)

func reluGradAVX2(grad, g, x []float32)

func init() {
	if !cpuid.HasAVX2 {
		return
	}
	avx2 := &kernels{rows4: rows4AVX2, row1: row1AVX2, dots: dotsAVX2,
		sgd: sgdAVX2, add: addAVX2, acc: accAVX2, relu: reluAVX2, reluGrad: reluGradAVX2}
	hostKernels = []*kernels{avx2}
	if cpuid.HasAVX512 {
		avx512 := *avx2
		avx512.panel4, avx512.dots16 = panel4x32AVX512, dots16AVX512
		hostKernels = []*kernels{&avx512, avx2}
	}
	simd = hostKernels[0]
}
