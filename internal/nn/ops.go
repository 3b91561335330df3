package nn

import (
	"fmt"
	"math"
)

// MatMul returns a·b for a [R×K] and b [K×C].
func MatMul(a, b *Tensor) *Tensor {
	if a.C != b.R {
		panic(fmt.Sprintf("nn: MatMul shape mismatch %dx%d · %dx%d", a.R, a.C, b.R, b.C))
	}
	out := newResult(a.R, b.C, a, b)
	matmulInto(out.Data, a.Data, b.Data, a.R, a.C, b.C)
	out.back = func() {
		if a.needGrad {
			a.ensureGrad()
			matmulGradA(a.Grad, out.Grad, b.Data, a.R, a.C, b.C) // dA += dOut · Bᵀ
		}
		if b.needGrad {
			b.ensureGrad()
			matmulGradB(b.Grad, a.Data, out.Grad, a.R, a.C, b.C) // dB += Aᵀ · dOut
		}
	}
	return out
}

// Add returns the elementwise sum of equally-shaped tensors.
func Add(a, b *Tensor) *Tensor {
	if a.R != b.R || a.C != b.C {
		panic(fmt.Sprintf("nn: Add shape mismatch %dx%d + %dx%d", a.R, a.C, b.R, b.C))
	}
	out := newResult(a.R, a.C, a, b)
	addInto(out.Data, a.Data, b.Data)
	out.back = func() {
		if a.needGrad {
			a.ensureGrad()
			accumInto(a.Grad, out.Grad)
		}
		if b.needGrad {
			b.ensureGrad()
			accumInto(b.Grad, out.Grad)
		}
	}
	return out
}

// AddRow broadcasts the 1×C row b over every row of a [R×C] (bias add).
func AddRow(a, b *Tensor) *Tensor {
	if b.R != 1 || a.C != b.C {
		panic(fmt.Sprintf("nn: AddRow shape mismatch %dx%d + %dx%d", a.R, a.C, b.R, b.C))
	}
	out := newResult(a.R, a.C, a, b)
	c := a.C
	for i := 0; i < a.R; i++ {
		addInto(out.Data[i*c:(i+1)*c], a.Data[i*c:(i+1)*c], b.Data)
	}
	out.back = func() {
		if a.needGrad {
			a.ensureGrad()
			accumInto(a.Grad, out.Grad)
		}
		if b.needGrad {
			b.ensureGrad()
			for i := 0; i < a.R; i++ { // rows in order: each column sums as it always has
				accumInto(b.Grad, out.Grad[i*c:(i+1)*c])
			}
		}
	}
	return out
}

// addInto sets dst[i] = a[i] + b[i] for every i < len(dst).
func addInto(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	if simd != nil {
		simd.add(dst, a, b)
		return
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// accumInto adds src[i] into dst[i] for every i < len(dst).
func accumInto(dst, src []float32) {
	src = src[:len(dst)]
	if simd != nil {
		simd.acc(dst, src)
		return
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// Mul returns the elementwise (Hadamard) product of equally-shaped tensors.
func Mul(a, b *Tensor) *Tensor {
	if a.R != b.R || a.C != b.C {
		panic(fmt.Sprintf("nn: Mul shape mismatch %dx%d * %dx%d", a.R, a.C, b.R, b.C))
	}
	out := newResult(a.R, a.C, a, b)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	out.back = func() {
		if a.needGrad {
			a.ensureGrad()
			for i := range out.Grad {
				a.Grad[i] += out.Grad[i] * b.Data[i]
			}
		}
		if b.needGrad {
			b.ensureGrad()
			for i := range out.Grad {
				b.Grad[i] += out.Grad[i] * a.Data[i]
			}
		}
	}
	return out
}

// ReLU applies max(0, x) elementwise.
func ReLU(a *Tensor) *Tensor {
	out := newResult(a.R, a.C, a)
	reluInto(out.Data, a.Data)
	out.back = func() {
		if !a.needGrad {
			return
		}
		a.ensureGrad()
		reluGradInto(a.Grad, out.Grad, a.Data)
	}
	return out
}

// positive is all ones when x > 0 and zero otherwise (±0, negatives, every
// NaN): x > 0 exactly when bits(x)−1, unsigned, is below 0x7f800000 — the
// +denormals through +Inf. ReLU selects on it instead of branching, since
// the signs it sees are ≈ 50 % random and a branch on them mispredicts.
// The AVX2 passes get the same mask from an ordered compare.
func positive(x float32) uint32 {
	return uint32((int64(math.Float32bits(x)-1) - 0x7f800000) >> 63)
}

// reluInto sets dst[i] to src[i] where src[i] > 0 and to +0 elsewhere.
func reluInto(dst, src []float32) {
	dst = dst[:len(src)]
	if simd != nil {
		simd.relu(dst, src)
		return
	}
	for i, v := range src {
		dst[i] = math.Float32frombits(math.Float32bits(v) & positive(v))
	}
}

// reluGradInto adds g[i] into grad[i] where x[i] > 0. The sum is computed
// everywhere; where x[i] is not positive grad[i] keeps its old bits, so a
// −0 or a NaN payload there is left untouched.
func reluGradInto(grad, g, x []float32) {
	grad, g = grad[:len(x)], g[:len(x)]
	if simd != nil {
		simd.reluGrad(grad, g, x)
		return
	}
	for i, v := range x {
		m, old := positive(v), math.Float32bits(grad[i])
		grad[i] = math.Float32frombits(math.Float32bits(grad[i]+g[i])&m | old&^m)
	}
}

// Tanh applies tanh elementwise.
func Tanh(a *Tensor) *Tensor {
	out := newResult(a.R, a.C, a)
	for i, v := range a.Data {
		out.Data[i] = float32(math.Tanh(float64(v)))
	}
	out.back = func() {
		if !a.needGrad {
			return
		}
		a.ensureGrad()
		for i := range out.Grad {
			y := out.Data[i]
			a.Grad[i] += out.Grad[i] * (1 - y*y)
		}
	}
	return out
}

// Sigmoid applies 1/(1+e^-x) elementwise.
func Sigmoid(a *Tensor) *Tensor {
	out := newResult(a.R, a.C, a)
	for i, v := range a.Data {
		out.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	out.back = func() {
		if !a.needGrad {
			return
		}
		a.ensureGrad()
		for i := range out.Grad {
			y := out.Data[i]
			a.Grad[i] += out.Grad[i] * y * (1 - y)
		}
	}
	return out
}

// Embed gathers rows of the embedding table w [V×D] for the given ids,
// producing a [len(ids)×D] tensor. The backward pass scatter-adds into the
// table's gradient.
func Embed(w *Tensor, ids []int) *Tensor {
	out := newResult(len(ids), w.C, w)
	for b, id := range ids {
		if id < 0 || id >= w.R {
			panic(fmt.Sprintf("nn: Embed id %d outside vocabulary %d", id, w.R))
		}
		copy(out.Data[b*w.C:(b+1)*w.C], w.Data[id*w.C:(id+1)*w.C])
	}
	out.back = func() {
		if !w.needGrad {
			return
		}
		w.ensureGrad()
		for b, id := range ids {
			for j := 0; j < w.C; j++ {
				w.Grad[id*w.C+j] += out.Grad[b*w.C+j]
			}
		}
	}
	return out
}

// Scale multiplies every element by s.
func Scale(a *Tensor, s float32) *Tensor {
	out := newResult(a.R, a.C, a)
	for i, v := range a.Data {
		out.Data[i] = v * s
	}
	out.back = func() {
		if !a.needGrad {
			return
		}
		a.ensureGrad()
		for i := range out.Grad {
			a.Grad[i] += out.Grad[i] * s
		}
	}
	return out
}
