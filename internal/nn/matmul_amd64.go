package nn

// Declarations of the passes in matmul_amd64.s. They read and write only
// the slices they are given, up to len(dst) (rows4AVX2, row1AVX2, addAVX2,
// accAVX2, reluAVX2), len(w) (sgdAVX2), len(grad) (reluGradAVX2) or len(b0)
// (dotsAVX2); the callers slice every operand to that length, and t to
// eight times it.

func rows4AVX2(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)

func row1AVX2(dst, b []float32, a float32)

func dotsAVX2(s *[32]float32, t, b0, b1, b2, b3 []float32)

func sgdAVX2(w, vel, g []float32, mu, scale, lr float32)

func addAVX2(dst, a, b []float32)

func accAVX2(dst, src []float32)

func reluAVX2(dst, src []float32)

func reluGradAVX2(grad, g, x []float32)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

func init() {
	if hasAVX2() {
		avx2 = &kernels{rows4: rows4AVX2, row1: row1AVX2, dots: dotsAVX2,
			sgd: sgdAVX2, add: addAVX2, acc: accAVX2, relu: reluAVX2, reluGrad: reluGradAVX2}
	}
}

// hasAVX2 reports whether the CPU executes AVX2 and the OS saves the YMM
// registers across context switches (XCR0 bits 1 and 2, read by XGETBV
// once CPUID says OSXSAVE).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
