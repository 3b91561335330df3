package cpuid

import (
	"bufio"
	"os"
	"strings"
	"testing"
)

// TestAgreesWithKernel holds the probe to the flags Linux reports in
// /proc/cpuinfo. The kernel clears a flag when it does not save the state
// the instructions need, so its avx2 and avx512f flags mean what HasAVX2
// and HasAVX512 mean. A CPU without an x86 flags line (another GOARCH)
// must report neither.
func TestAgreesWithKernel(t *testing.T) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	defer f.Close()
	flags := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(name) == "flags" {
			for _, fl := range strings.Fields(value) {
				flags[fl] = true
			}
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if HasAVX2 != flags["avx2"] {
		t.Errorf("HasAVX2 = %v, /proc/cpuinfo avx2 = %v", HasAVX2, flags["avx2"])
	}
	if HasAVX512 != flags["avx512f"] {
		t.Errorf("HasAVX512 = %v, /proc/cpuinfo avx512f = %v", HasAVX512, flags["avx512f"])
	}
	if HasAVX512 && !HasAVX2 {
		t.Error("HasAVX512 without HasAVX2")
	}
}
