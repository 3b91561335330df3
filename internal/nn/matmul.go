package nn

// The three matrix products behind MatMul — forward, dA and dB — as
// register-blocked kernels. Blocking only changes how many independent
// output elements are in flight: every output element still sees the
// same products added in the same left-to-right order as the plain
// triple loops kept in matmul_reference_test.go, so results are
// Float32bits-equal to them (no accumulator is ever split along a
// reduction axis, and a zero coefficient still skips its row, NaN/±Inf
// included).

// matmulInto computes dst = a·b for a [r×k], b [k×c]; dst must be zeroed,
// length r·c.
//
//spardl:hotpath
func matmulInto(dst, a, b []float32, r, k, c int) {
	for i := 0; i < r; i++ {
		accumRows(dst[i*c:(i+1)*c], a[i*k:(i+1)*k], 1, b)
	}
}

// matmulGradB accumulates bGrad += aᵀ·outGrad for a [r×k], outGrad [r×c].
//
//spardl:hotpath
func matmulGradB(bGrad, a, outGrad []float32, r, k, c int) {
	if r == 0 {
		return
	}
	for kk := 0; kk < k; kk++ {
		accumRows(bGrad[kk*c:(kk+1)*c], a[kk:r*k], k, outGrad) // column kk of a
	}
}

// accumRows adds Σₜ coef[t·stride]·src[t·c:(t+1)·c] into dst (length c),
// t ascending, skipping zero coefficients: the next four non-zero ones are
// gathered and applied in one pass over dst, the tail one at a time.
//
//spardl:hotpath
func accumRows(dst, coef []float32, stride int, src []float32) {
	c := len(dst)
	var av [4]float32
	var at [4]int
	g := 0
	for t, off := 0, 0; off < len(coef); t, off = t+1, off+stride {
		v := coef[off]
		av[g], at[g] = v, t*c
		if v != 0 {
			g++
		}
		if g < 4 {
			continue
		}
		g = 0
		b0, b1, b2, b3 := src[at[0]:][:c], src[at[1]:][:c], src[at[2]:][:c], src[at[3]:][:c]
		a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
		for j := range dst {
			dst[j] = dst[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for t := 0; t < g; t++ {
		a0, b0 := av[t], src[at[t]:][:c]
		for j := range dst {
			dst[j] += a0 * b0[j]
		}
	}
}

// matmulGradA accumulates aGrad += outGrad·bᵀ for outGrad [r×c], b [k×c]:
// four dot products at a time, each with its own accumulator running over
// j in order from zero.
//
//spardl:hotpath
func matmulGradA(aGrad, outGrad, b []float32, r, k, c int) {
	for i := 0; i < r; i++ {
		o := outGrad[i*c : (i+1)*c]
		g := aGrad[i*k : (i+1)*k]
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			b0, b1, b2, b3 := b[kk*c:][:c], b[(kk+1)*c:][:c], b[(kk+2)*c:][:c], b[(kk+3)*c:][:c]
			var s0, s1, s2, s3 float32
			for j, ov := range o {
				s0 += ov * b0[j]
				s1 += ov * b1[j]
				s2 += ov * b2[j]
				s3 += ov * b3[j]
			}
			g[kk] += s0
			g[kk+1] += s1
			g[kk+2] += s2
			g[kk+3] += s3
		}
		for ; kk < k; kk++ {
			b0 := b[kk*c:][:c]
			var s float32
			for j, ov := range o {
				s += ov * b0[j]
			}
			g[kk] += s
		}
	}
}
