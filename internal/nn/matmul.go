package nn

// The three matrix products behind MatMul — forward, dA and dB — as
// register-blocked kernels. Blocking only changes how many independent
// output elements are in flight: every output element still sees the
// same products added in the same left-to-right order as the plain
// triple loops kept in matmul_reference_test.go, so results are
// Float32bits-equal to them (no accumulator is ever split along a
// reduction axis, and a zero coefficient still skips its row, NaN/±Inf
// included).
//
// On a CPU with AVX2 the innermost passes — and those of the elementwise
// ops and the optimizer — run eight float32 lanes wide (matmul_amd64.s): a
// lane is one iteration of the Go loop it replaces, with the same operands
// in the same order and no fused multiply-add, so both paths give the same
// bits. With AVX-512 the forward and dB products run as panels of four
// output rows by 32 columns, and dA's interleaved pass is sixteen rows
// wide. The Go loops run everywhere else.

// kernels is one assembly pass set; the fields are matmul_amd64.s's
// routines: the three MatMul passes here, then the momentum update
// (sgd.go) and the elementwise passes of Add, AddRow and ReLU (ops.go).
// The AVX-512 set is the AVX2 set with panel4 and dots16 added.
type kernels struct {
	panel4   func(dst, coef, src []float32, c, nt, rs, ts int) // nil: accumRows does every row
	rows4    func(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)
	row1     func(dst, b []float32, a float32)
	dots     func(s, t, b0, b1, b2, b3 []float32) // eight rows per pass
	dots16   func(s, t, b0, b1, b2, b3 []float32) // sixteen; nil on AVX2
	sgd      func(w, vel, g []float32, mu, scale, lr float32)
	add      func(dst, a, b []float32)
	acc      func(dst, src []float32)
	relu     func(dst, src []float32)
	reluGrad func(grad, g, x []float32)
}

// hostKernels lists the kernel sets this CPU runs, fastest first (AVX-512,
// then AVX2); matmul_amd64.go's init fills it from cpuid, and it stays
// empty on every other CPU and GOARCH.
var hostKernels []*kernels

// simd is the kernel set in use: hostKernels[0], or nil for the Go loops.
// Tests swap it to hold every path to the same oracle on one host.
var simd *kernels

// matmulInto computes dst = a·b for a [r×k], b [k×c]; dst must be zeroed,
// length r·c. With AVX-512, rows go four at a time through panel4, whose
// coefficient for output row i and term t is a[i·k+t].
func matmulInto(dst, a, b []float32, r, k, c int) {
	i := 0
	if simd != nil && simd.panel4 != nil {
		for ; i+4 <= r; i += 4 {
			simd.panel4(dst[i*c:(i+4)*c], a[i*k:(i+4)*k], b[:k*c], c, k, k, 1)
		}
	}
	for ; i < r; i++ {
		accumRows(dst[i*c:(i+1)*c], a[i*k:(i+1)*k], 1, b)
	}
}

// matmulGradB accumulates bGrad += aᵀ·outGrad for a [r×k], outGrad [r×c].
// Output row kk takes column kk of a as its coefficients, so the four
// rows of a panel read adjacent elements of each row of a.
func matmulGradB(bGrad, a, outGrad []float32, r, k, c int) {
	if r == 0 {
		return
	}
	kk := 0
	if simd != nil && simd.panel4 != nil {
		for ; kk+4 <= k; kk += 4 {
			simd.panel4(bGrad[kk*c:(kk+4)*c], a[kk:r*k], outGrad[:r*c], c, r, 1, k)
		}
	}
	for ; kk < k; kk++ {
		accumRows(bGrad[kk*c:(kk+1)*c], a[kk:r*k], k, outGrad) // column kk of a
	}
}

// accumRows adds Σₜ coef[t·stride]·src[t·c:(t+1)·c] into dst (length c),
// t ascending, skipping zero coefficients: the next four non-zero ones are
// gathered and applied in one pass over dst, the tail one at a time.
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
		if simd != nil {
			simd.rows4(dst, b0, b1, b2, b3, a0, a1, a2, a3)
			continue
		}
		for j := range dst {
			dst[j] = dst[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for t := 0; t < g; t++ {
		a0, b0 := av[t], src[at[t]:][:c]
		if simd != nil {
			simd.row1(dst, b0, a0)
			continue
		}
		for j := range dst {
			dst[j] += a0 * b0[j]
		}
	}
}

// matmulGradA accumulates aGrad += outGrad·bᵀ for outGrad [r×c], b [k×c],
// with scratch of its own.
func matmulGradA(aGrad, outGrad, b []float32, r, k, c int) {
	matmulGradAWith(new([]float32), aGrad, outGrad, b, r, k, c)
}

// matmulGradAWith is matmulGradA with gradABlocks' working memory in *sc,
// grown when too small. With AVX-512, whole blocks of sixteen rows go
// through gradABlocks; with AVX2, so do whole blocks of eight of the rows
// left. The rows past them take gradARow, which is the portable kernel.
func matmulGradAWith(sc *[]float32, aGrad, outGrad, b []float32, r, k, c int) {
	i := 0
	if simd != nil {
		if simd.dots16 != nil {
			i = gradABlocks(sc, aGrad, outGrad, b, r, k, c, 16, simd.dots16)
		}
		i += gradABlocks(sc, aGrad[i*k:], outGrad[i*c:], b, r-i, k, c, 8, simd.dots)
	}
	for ; i < r; i++ {
		gradARow(aGrad[i*k:(i+1)*k], outGrad[i*c:(i+1)*c], b, 0, c)
	}
}

// gradARow accumulates g[kk] += o·b[kk] for kk from kk0 up to len(g):
// four dot products at a time, each with its own accumulator running over
// j in order from zero.
func gradARow(g, o, b []float32, kk0, c int) {
	k := len(g)
	kk := kk0
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

// gradABlocks is matmulGradA for the first r rounded down to a multiple
// of w rows, which it returns; dots is the w-row pass (8 or 16). Each
// block of w outGrad rows is interleaved into t (t[w·j+l] = row l's
// element j), so one pass of dots over j yields four columns of aGrad for
// all w rows: lane l of sum q is exactly gradARow's accumulator for row
// i+l and column kk+q. Columns past a multiple of four take gradARow. t
// and the sums s of one pass are the first w·c and next 4·w values of *sc.
func gradABlocks(sc *[]float32, aGrad, outGrad, b []float32, r, k, c, w int, dots func(s, t, b0, b1, b2, b3 []float32)) int {
	if r -= r % w; r == 0 {
		return 0
	}
	if cap(*sc) < w*c+4*w {
		*sc = make([]float32, w*c+4*w)
	}
	t, s := (*sc)[:w*c], (*sc)[w*c:w*c+4*w]
	k4 := k &^ 3
	for i := 0; i < r; i += w {
		for l := 0; l < w; l++ {
			for j, v := range outGrad[(i+l)*c : (i+l+1)*c] {
				t[w*j+l] = v
			}
		}
		for kk := 0; kk < k4; kk += 4 {
			dots(s, t, b[kk*c:][:c], b[(kk+1)*c:][:c], b[(kk+2)*c:][:c], b[(kk+3)*c:][:c])
			for l := 0; l < w; l++ {
				g := aGrad[(i+l)*k+kk:][:4]
				g[0] += s[l]
				g[1] += s[w+l]
				g[2] += s[2*w+l]
				g[3] += s[3*w+l]
			}
		}
		if k4 < k {
			for l := 0; l < w; l++ {
				gradARow(aGrad[(i+l)*k:(i+l+1)*k], outGrad[(i+l)*c:(i+l+1)*c], b, k4, c)
			}
		}
	}
	return r
}
