package cpuid

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

func init() {
	HasAVX2 = hasAVX2()
	HasAVX512 = HasAVX2 && hasAVX512()
}

// hasAVX2 reads CPUID leaf 7 for AVX2, and leaf 1 and XCR0 (bits 1 and 2,
// read by XGETBV once CPUID says OSXSAVE) for whether the OS saves YMM
// state.
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

// hasAVX512 reads CPUID leaf 7 for AVX512F and XCR0 for whether the OS
// saves the XMM, YMM, opmask, upper-ZMM0–15 and ZMM16–31 states (bits 1,
// 2, 5, 6 and 7). It is called only once hasAVX2 holds, so leaf 7 exists
// and XGETBV is allowed.
func hasAVX512() bool {
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<16) != 0 && xgetbv()&zmmState == zmmState
}
