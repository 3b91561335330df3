package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The plain triple loops MatMul ran before the register-blocked kernels,
// kept verbatim as the bit-exact oracle: one running sum per output
// element, products added in index order, a zero in a skipping its row.

func refMatmulInto(dst, a, b []float32, r, k, c int) {
	for i := 0; i < r; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*c : (i+1)*c]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b[kk*c : (kk+1)*c]
			for j := range drow {
				drow[j] += av * brow[j]
			}
		}
	}
}

func refMatmulGradA(aGrad, outGrad, b []float32, r, k, c int) {
	for i := 0; i < r; i++ {
		for kk := 0; kk < k; kk++ {
			var s float32
			brow := b[kk*c:]
			orow := outGrad[i*c:]
			for j := 0; j < c; j++ {
				s += orow[j] * brow[j]
			}
			aGrad[i*k+kk] += s
		}
	}
}

func refMatmulGradB(bGrad, a, outGrad []float32, r, k, c int) {
	for i := 0; i < r; i++ {
		arow := a[i*k:]
		orow := outGrad[i*c:]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := bGrad[kk*c:]
			for j := 0; j < c; j++ {
				brow[j] += av * orow[j]
			}
		}
	}
}

// sameBits reports the first index at which two vectors differ as bit
// patterns (so the sign of zero and every rounding count), or -1. Two NaNs
// compare equal whatever their payloads: when both operands of an add are
// NaN the hardware keeps the first one's payload, and which operand comes
// first in a commutative add is the compiler's choice, not the program's.
func sameBits(x, y []float32) int {
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(y[i]) && (x[i] == x[i] || y[i] == y[i]) {
			return i
		}
	}
	return -1
}

// hostPaths lists the kernel sets this host runs: the AVX2 passes when the
// CPU has them, then the portable Go loops (nil), which run everywhere.
func hostPaths() []*kernels {
	if avx2 == nil {
		return []*kernels{nil}
	}
	return []*kernels{avx2, nil}
}

func pathName(k *kernels) string {
	if k == nil {
		return "go"
	}
	return "avx2"
}

// onPath runs f with the kernels dispatching to path k.
func onPath(k *kernels, f func()) {
	defer func(saved *kernels) { avx2 = saved }(avx2)
	avx2 = k
	f()
}

// placed copies v into a fresh buffer at element offset off, so a kernel
// sees every alignment, with a guard pattern in the off elements before it
// and the eight after: intact reports whether the kernel wrote only inside v.
func placed(v []float32, off int) (w []float32, intact func() bool) {
	buf := make([]float32, off+len(v)+8)
	for i := range buf {
		buf[i] = math.Float32frombits(0x7fc0dead)
	}
	w = buf[off : off+len(v)]
	copy(w, v)
	return w, func() bool {
		for _, g := range append(buf[:off:off], buf[off+len(v):]...) {
			if math.Float32bits(g) != 0x7fc0dead {
				return false
			}
		}
		return true
	}
}

// checkKernels runs the three kernels on every path this host has, and
// their oracles, on one problem: a [r×k], b [k×c], outGrad [r×c], with
// aGrad / bGrad pre-loaded (MatMul accumulates into gradients that other
// uses of a tensor already wrote). Every operand sits at element offset
// off in its buffer.
func checkKernels(t testing.TB, off, r, k, c int, a, b, outGrad, aGrad, bGrad []float32) {
	t.Helper()
	wantF := make([]float32, r*c)
	refMatmulInto(wantF, a, b, r, k, c)
	wantA := slices.Clone(aGrad)
	refMatmulGradA(wantA, outGrad, b, r, k, c)
	wantB := slices.Clone(bGrad)
	refMatmulGradB(wantB, a, outGrad, r, k, c)
	a, _ = placed(a, off)
	b, _ = placed(b, off)
	outGrad, _ = placed(outGrad, off)
	for _, p := range hostPaths() {
		for _, kernel := range []struct {
			name       string
			init, want []float32
			run        func(dst []float32)
		}{
			{"forward", make([]float32, r*c), wantF, func(dst []float32) { matmulInto(dst, a, b, r, k, c) }},
			{"dA", aGrad, wantA, func(dst []float32) { matmulGradA(dst, outGrad, b, r, k, c) }},
			{"dB", bGrad, wantB, func(dst []float32) { matmulGradB(dst, a, outGrad, r, k, c) }},
		} {
			got, intact := placed(kernel.init, off)
			onPath(p, func() { kernel.run(got) })
			if i := sameBits(got, kernel.want); i >= 0 {
				t.Fatalf("%s %s %dx%dx%d at offset %d: element %d = %x, oracle %x", pathName(p), kernel.name,
					r, k, c, off, i, math.Float32bits(got[i]), math.Float32bits(kernel.want[i]))
			}
			if !intact() {
				t.Fatalf("%s %s %dx%dx%d at offset %d: wrote outside its output", pathName(p), kernel.name, r, k, c, off)
			}
		}
	}
}

// heavyTailed draws values whose sums round differently under any
// reordering: magnitudes spread over ~2^±12 with random signs.
func heavyTailed(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64() * math.Exp2(float64(rng.Intn(25)-12)))
	}
	return v
}

var kernelDims = []int{1, 2, 3, 4, 5, 7, 8, 31, 32, 33, 50, 192}

// rowDims add the row counts around the AVX2 dA path's blocks of eight.
var rowDims = append([]int{9, 15, 16, 17}, kernelDims...)

func TestMatMulKernelsMatchReference(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	poison := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	rng := rand.New(rand.NewSource(20))
	run := 0
	for _, zeroFrac := range []float64{0, 0.5, 0.95, 1} {
		for trial := 0; trial < 40; trial++ {
			r, k, c := rowDims[rng.Intn(len(rowDims))], kernelDims[rng.Intn(len(kernelDims))], kernelDims[rng.Intn(len(kernelDims))]
			switch run++; {
			case run%9 == 0:
				r, k, c = 32, 192, 192 // the benchmarked layer, whatever the draw
			case run%20 == 0:
				r, k, c = 1024, 1+rng.Intn(50), 1+rng.Intn(50) // an evaluation batch
			}
			off := rng.Intn(8)
			a, b, outGrad := heavyTailed(rng, r*k), heavyTailed(rng, k*c), heavyTailed(rng, r*c)
			for i := range a {
				if rng.Float64() < zeroFrac {
					a[i] = 0
					if rng.Intn(4) == 0 {
						a[i] = negZero // == 0, so it skips too
					}
				}
			}
			// Forward: row kk of b is skipped by every row of a whose
			// column kk is zero — when the whole column is, the row may
			// hold anything. dB: likewise row i of outGrad when a[i][·]
			// is all zero. Poison such rows; a dropped skip turns the
			// output into NaN.
			for kk := 0; kk < k; kk++ {
				skipped := true
				for i := 0; i < r && skipped; i++ {
					skipped = a[i*k+kk] == 0
				}
				if skipped {
					b[kk*c+rng.Intn(c)] = poison[rng.Intn(len(poison))]
				}
			}
			// dA reads every row of b, so it runs on a poisoned b too: NaN
			// and ±Inf must propagate exactly as the oracle's do.
			checkKernels(t, off, r, k, c, a, b, outGrad, heavyTailed(rng, r*k), heavyTailed(rng, k*c))
			for i := 0; i < r; i++ {
				skipped := true
				for kk := 0; kk < k && skipped; kk++ {
					skipped = a[i*k+kk] == 0
				}
				if skipped {
					outGrad[i*c+rng.Intn(c)] = poison[rng.Intn(len(poison))]
				}
			}
			checkKernels(t, off, r, k, c, a, b, outGrad, heavyTailed(rng, r*k), heavyTailed(rng, k*c))
		}
	}
}

// TestMatMulSkipsPoisonedRows is the zero-skip contract at the MatMul
// level: a zero in a keeps a NaN/±Inf row of b out of the product and a
// NaN/±Inf row of the incoming gradient out of dB.
func TestMatMulSkipsPoisonedRows(t *testing.T) {
	nan := float32(math.NaN())
	for _, p := range hostPaths() {
		onPath(p, func() {
			a := NewParam(2, 5, func(i int) float32 { return []float32{1, 0, 2, 3, 4, 0, 0, 0, 0, 0}[i] })
			b := NewParam(5, 2, func(i int) float32 { return []float32{1, 2, nan, float32(math.Inf(1)), 3, 4, 5, 6, 7, 8}[i] })
			out := MatMul(a, b)
			for i, v := range out.Data {
				if v != v || math.IsInf(float64(v), 0) {
					t.Fatalf("%s: forward output %d = %v: a skipped row of b leaked", pathName(p), i, v)
				}
			}
			out.Grad = []float32{1, 1, nan, nan} // row 1 of a is all zero
			out.back()
			for i, v := range b.Grad {
				if v != v {
					t.Fatalf("%s: dB %d = NaN: a skipped row of the incoming gradient leaked", pathName(p), i)
				}
			}
		})
	}
}

// rawFill returns a generator of float32 vectors cut from raw, four
// little-endian bytes per value, cycling through it with every pass
// shifted by one (so a short input still gives varied values); an empty
// raw gives +0s.
func rawFill(raw []byte) func(n int) []float32 {
	pos := 0
	return func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			var w [4]byte
			for j := range w {
				if len(raw) > 0 {
					w[j] = raw[pos%len(raw)] + byte(pos/len(raw))
					pos++
				}
			}
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(w[:]))
		}
		return v
	}
}

// FuzzMatMulKernels feeds raw bit patterns — denormals, NaN payloads,
// infinities, both zeros — through the kernels on every path this host
// has, and their oracles, at every alignment.
func FuzzMatMulKernels(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(4), []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x80, 0, 0, 0xc0, 0x7f, 1, 0, 0, 0})
	f.Add(uint8(32), uint8(9), uint8(33), []byte("register-blocked, bit-identical"))
	f.Add(uint8(1), uint8(1), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, rb, kb, cb uint8, raw []byte) {
		r, k, c := int(rb%40)+1, int(kb%40)+1, int(cb%40)+1
		// Cycle the raw bytes over all five operands; every fourth a is
		// forced to a zero so the gather path sees gaps whatever the bytes.
		fill := rawFill(raw)
		a := fill(r * k)
		for i := range a {
			if (i+int(rb))%4 == 0 {
				a[i] = 0
			}
		}
		checkKernels(t, int(rb^kb^cb)%8, r, k, c, a, fill(k*c), fill(r*c), fill(r*k), fill(k*c))
	})
}
