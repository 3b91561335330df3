package sparse

import "spardl/internal/cpuid"

// warmFilterAVX2 is warmFilter in assembly, in topk_warm_amd64.s.
func warmFilterAVX2(idx []int32, val []float32, g []float32, first int32, low uint32) (read, kept int)

// addFilterAVX2 is addFilter in assembly, in topk_warm_amd64.s.
func addFilterAVX2(idx []int32, val []float32, g []float32, add []float32, first int32, low uint32) (read, kept int)

func init() {
	if cpuid.HasAVX2 {
		warmFilter = warmFilterAVX2
		if !raceEnabled {
			addFilter = addFilterAVX2
		}
	}
}
