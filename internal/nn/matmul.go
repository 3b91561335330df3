package nn

import "sync"

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
// bits. The Go loops run everywhere else.

// kernels is the AVX2 pass set; the fields are matmul_amd64.s's routines:
// the three MatMul passes here, then the momentum update (sgd.go) and the
// elementwise passes of Add, AddRow and ReLU (ops.go).
type kernels struct {
	rows4    func(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)
	row1     func(dst, b []float32, a float32)
	dots     func(s *[32]float32, t, b0, b1, b2, b3 []float32)
	sgd      func(w, vel, g []float32, mu, scale, lr float32)
	add      func(dst, a, b []float32)
	acc      func(dst, src []float32)
	relu     func(dst, src []float32)
	reluGrad func(grad, g, x []float32)
}

// avx2 is set once, by matmul_amd64.go's init, when cpuid.HasAVX2 says
// the CPU has AVX2 and the OS saves YMM state; nil selects the Go loops.
// Tests clear it to hold both paths to the same oracle on one host.
var avx2 *kernels

// matmulInto computes dst = a·b for a [r×k], b [k×c]; dst must be zeroed,
// length r·c.
func matmulInto(dst, a, b []float32, r, k, c int) {
	for i := 0; i < r; i++ {
		accumRows(dst[i*c:(i+1)*c], a[i*k:(i+1)*k], 1, b)
	}
}

// matmulGradB accumulates bGrad += aᵀ·outGrad for a [r×k], outGrad [r×c].
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
		if avx2 != nil {
			avx2.rows4(dst, b0, b1, b2, b3, a0, a1, a2, a3)
			continue
		}
		for j := range dst {
			dst[j] = dst[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for t := 0; t < g; t++ {
		a0, b0 := av[t], src[at[t]:][:c]
		if avx2 != nil {
			avx2.row1(dst, b0, a0)
			continue
		}
		for j := range dst {
			dst[j] += a0 * b0[j]
		}
	}
}

// matmulGradA accumulates aGrad += outGrad·bᵀ for outGrad [r×c], b [k×c].
// With AVX2, whole blocks of eight rows go through gradA8; the rows past
// them take gradARow, which is the portable kernel.
func matmulGradA(aGrad, outGrad, b []float32, r, k, c int) {
	i := 0
	if avx2 != nil && r >= 8 {
		i = r &^ 7
		gradA8(aGrad[:i*k], outGrad[:i*c], b, i, k, c)
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

// gradAScratch is gradA8's working memory: the interleaved block and the
// 32 sums of one pass, pooled so a backward pass allocates nothing.
type gradAScratch struct {
	t []float32
	s [32]float32
}

var gradAPool = sync.Pool{New: func() any { return new(gradAScratch) }}

// gradA8 is matmulGradA for r a multiple of eight, on AVX2. Each block of
// eight outGrad rows is interleaved into t (t[8j+l] = row l's element j),
// so one pass of avx2.dots over j yields four columns of aGrad for all
// eight rows: lane l of sum q is exactly gradARow's accumulator for row
// i+l and column kk+q. Columns past a multiple of four take gradARow.
func gradA8(aGrad, outGrad, b []float32, r, k, c int) {
	sc := gradAPool.Get().(*gradAScratch)
	if cap(sc.t) < 8*c {
		sc.t = make([]float32, 8*c)
	}
	t, s := sc.t[:8*c], &sc.s
	k4 := k &^ 3
	for i := 0; i < r; i += 8 {
		for l := 0; l < 8; l++ {
			for j, v := range outGrad[(i+l)*c : (i+l+1)*c] {
				t[8*j+l] = v
			}
		}
		for kk := 0; kk < k4; kk += 4 {
			avx2.dots(s, t, b[kk*c:][:c], b[(kk+1)*c:][:c], b[(kk+2)*c:][:c], b[(kk+3)*c:][:c])
			for l := 0; l < 8; l++ {
				g := aGrad[(i+l)*k+kk:][:4]
				g[0] += s[l]
				g[1] += s[8+l]
				g[2] += s[16+l]
				g[3] += s[24+l]
			}
		}
		if k4 < k {
			for l := 0; l < 8; l++ {
				gradARow(aGrad[(i+l)*k:(i+l+1)*k], outGrad[(i+l)*c:(i+l+1)*c], b, k4, c)
			}
		}
	}
	gradAPool.Put(sc)
}
