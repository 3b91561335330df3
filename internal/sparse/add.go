package sparse

import (
	"unsafe"

	"spardl/internal/cpuid"
)

// AddInto adds src into dst element by element: dst[i] += src[i] for every
// i < len(src), in ascending i, one float32 addition per element — exactly
// the scalar loop, so results are bit-identical to it. dst must hold at
// least len(src) elements. It is the one dense add of the reduce path: the
// gradient into a core block that a received chunk lands in before the
// block is selected, the gradient into Ok-Topk's vector, and a dense block
// onto a vector or merge block. A block selected before anything lands in
// it gets its gradient inside the selection instead (Arena.TopKDenseAdd).
//
// With AVX2 the whole groups go through addFilter, eight lanes per
// instruction, with a low no key reaches, so that nothing is buffered;
// the selection's fused pass and this add are one routine. dst and src
// may be the same slice, but when they overlap in part, a group read
// whole before any of it is written would differ from the scalar loop,
// so they take the loop below. So does a -race build, whose detector
// does not see what assembly reads and writes (raceEnabled), and a src
// shorter than one group. Without AVX2 that loop does all of it:
// gc does not vectorize the scalar loop; written out eight elements per
// step, with the bounds checks hoisted to one reslice per group (the
// shape of comm's dense codec), it takes about half the time per element.
//
// Which payload survives NaN + NaN is left open by IEEE 754 and by Go: it
// is the first operand of the instruction. Each lane is written src + dst,
// which in an ordinary build gets the order gc gives the scalar loop's
// `dst[i] += v` (a -race build may choose differently, lane by lane), and
// addFilterAVX2 adds in that order, so even two NaNs add as they did
// there: src's payload survives.
func AddInto(dst, src []float32) {
	dst = dst[:len(src)]
	i := 0
	if len(src) >= 8 && cpuid.HasAVX2 && !raceEnabled && !overlapsInPart(dst, src) {
		i, _ = addFilter(nil, nil, dst, src, 0, 1<<31)
	}
	for ; i+8 <= len(src); i += 8 {
		s, d := src[i:i+8], dst[i:i+8]
		d[0] = s[0] + d[0]
		d[1] = s[1] + d[1]
		d[2] = s[2] + d[2]
		d[3] = s[3] + d[3]
		d[4] = s[4] + d[4]
		d[5] = s[5] + d[5]
		d[6] = s[6] + d[6]
		d[7] = s[7] + d[7]
	}
	for j, v := range src[i:] {
		dst[i+j] += v
	}
}

// overlapsInPart reports whether dst and src, of one length, share memory
// without being the same slice.
func overlapsInPart(dst, src []float32) bool {
	if len(src) == 0 {
		return false
	}
	d, s := uintptr(unsafe.Pointer(&dst[0])), uintptr(unsafe.Pointer(&src[0]))
	n := uintptr(len(src)) * 4
	return d != s && d < s+n && s < d+n
}
