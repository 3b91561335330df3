package sparse

// AddInto adds src into dst element by element: dst[i] += src[i] for every
// i < len(src), in ascending i, one float32 addition per element — exactly
// the scalar loop, so results are bit-identical to it. dst must hold at
// least len(src) elements. It is the one dense add of the reduce path: the
// gradient onto the stored residual, and a dense block onto a vector or
// merge block.
//
// gc does not vectorize the scalar loop; written out eight elements per
// step, with the bounds checks hoisted to one reslice per group (the shape
// of comm's dense codec), it takes about half the time per element.
//
// Which payload survives NaN + NaN is left open by IEEE 754 and by Go: it
// is the first operand of the instruction gc emits, chosen per lane (a
// -race build chooses differently). Each lane is written src + dst, which
// in an ordinary build gets the order gc gives the scalar loop's
// `dst[i] += v`, so even two NaNs add as they did there.
//
//spardl:hotpath
func AddInto(dst, src []float32) {
	dst = dst[:len(src)]
	i := 0
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
