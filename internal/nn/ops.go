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
	out := newResult(a.R, b.C, &matmulOp, a, b)
	clear(out.Data)
	matmulInto(out.Data, a.Data, b.Data, a.R, a.C, b.C)
	return out
}

var matmulOp = op{back: matmulBack, readsInputs: true}

// matmulBack is the backward step of out = a·b, a and b its first two
// inputs (MatMul's, or Linear's x and W).
func matmulBack(out *Tensor) {
	a, b := out.prev[0], out.prev[1]
	if a.needGrad {
		a.ensureGrad()
		matmulGradAWith(out.tape.scratch(), a.Grad, out.Grad, b.Data, a.R, a.C, b.C) // dA += dOut · Bᵀ
	}
	if b.needGrad {
		b.ensureGrad()
		matmulGradB(b.Grad, a.Data, out.Grad, a.R, a.C, b.C) // dB += Aᵀ · dOut
	}
}

// Add returns the elementwise sum of equally-shaped tensors.
func Add(a, b *Tensor) *Tensor {
	if a.R != b.R || a.C != b.C {
		panic(fmt.Sprintf("nn: Add shape mismatch %dx%d + %dx%d", a.R, a.C, b.R, b.C))
	}
	out := newResult(a.R, a.C, &addOp, a, b)
	addInto(out.Data, a.Data, b.Data)
	return out
}

var addOp = op{back: addBack}

func addBack(out *Tensor) {
	for _, in := range out.prev {
		if in.needGrad {
			in.ensureGrad()
			accumInto(in.Grad, out.Grad)
		}
	}
}

// AddRow broadcasts the 1×C row b over every row of a [R×C] (bias add).
func AddRow(a, b *Tensor) *Tensor {
	if b.R != 1 || a.C != b.C {
		panic(fmt.Sprintf("nn: AddRow shape mismatch %dx%d + %dx%d", a.R, a.C, b.R, b.C))
	}
	out := newResult(a.R, a.C, &addRowOp, a, b)
	c := a.C
	for i := 0; i < a.R; i++ {
		addInto(out.Data[i*c:(i+1)*c], a.Data[i*c:(i+1)*c], b.Data)
	}
	return out
}

var addRowOp = op{back: addRowBack}

func addRowBack(out *Tensor) {
	if a := out.prev[0]; a.needGrad {
		a.ensureGrad()
		accumInto(a.Grad, out.Grad)
	}
	biasBack(out.prev[1], out.Grad)
}

// biasBack adds every row of g into the gradient of the 1×C row b that
// was broadcast over them, rows in order: each column sums as it always
// has.
func biasBack(b *Tensor, g []float32) {
	if !b.needGrad {
		return
	}
	b.ensureGrad()
	for i := 0; i < len(g); i += b.C {
		accumInto(b.Grad, g[i:i+b.C])
	}
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
	out := newResult(a.R, a.C, &mulOp, a, b)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

var mulOp = op{back: mulBack, readsInputs: true}

func mulBack(out *Tensor) {
	a, b := out.prev[0], out.prev[1]
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

// ReLU applies max(0, x) elementwise.
func ReLU(a *Tensor) *Tensor {
	out := newResult(a.R, a.C, &reluOp, a)
	reluInto(out.Data, a.Data)
	return out
}

var reluOp = op{back: reluBack, readsOutput: true}

// reluBack takes its mask from the output: positive(relu(x)) is
// positive(x), NaN and −0 included, so the input's Data is free once the
// forward pass is done with it.
func reluBack(out *Tensor) {
	if a := out.prev[0]; a.needGrad {
		a.ensureGrad()
		reluGradInto(a.Grad, out.Grad, out.Data)
	}
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
	out := newResult(a.R, a.C, &tanhOp, a)
	for i, v := range a.Data {
		out.Data[i] = float32(math.Tanh(float64(v)))
	}
	return out
}

var tanhOp = op{back: tanhBack, readsOutput: true}

func tanhBack(out *Tensor) {
	a := out.prev[0]
	if !a.needGrad {
		return
	}
	a.ensureGrad()
	for i := range out.Grad {
		y := out.Data[i]
		a.Grad[i] += out.Grad[i] * (1 - y*y)
	}
}

// Sigmoid applies 1/(1+e^-x) elementwise.
func Sigmoid(a *Tensor) *Tensor {
	out := newResult(a.R, a.C, &sigmoidOp, a)
	for i, v := range a.Data {
		out.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	return out
}

var sigmoidOp = op{back: sigmoidBack, readsOutput: true}

func sigmoidBack(out *Tensor) {
	a := out.prev[0]
	if !a.needGrad {
		return
	}
	a.ensureGrad()
	for i := range out.Grad {
		y := out.Data[i]
		a.Grad[i] += out.Grad[i] * y * (1 - y)
	}
}

// Embed gathers rows of the embedding table w [V×D] for the given ids,
// producing a [len(ids)×D] tensor. The backward pass scatter-adds into the
// table's gradient. The node keeps a copy of ids, so the caller may reuse
// the slice.
func Embed(w *Tensor, ids []int) *Tensor {
	for _, id := range ids {
		if id < 0 || id >= w.R {
			panic(fmt.Sprintf("nn: Embed id %d outside vocabulary %d", id, w.R))
		}
	}
	out := newResult(len(ids), w.C, &embedOp, w)
	out.ints = append(out.ints[:0], ids...)
	for b, id := range ids {
		copy(out.Data[b*w.C:(b+1)*w.C], w.Data[id*w.C:(id+1)*w.C])
	}
	return out
}

var embedOp = op{back: embedBack}

func embedBack(out *Tensor) {
	w := out.prev[0]
	if !w.needGrad {
		return
	}
	w.ensureGrad()
	for b, id := range out.ints {
		for j := 0; j < w.C; j++ {
			w.Grad[id*w.C+j] += out.Grad[b*w.C+j]
		}
	}
}

// Scale multiplies every element by s.
func Scale(a *Tensor, s float32) *Tensor {
	out := newResult(a.R, a.C, &scaleOp, a)
	out.s = s
	for i, v := range a.Data {
		out.Data[i] = v * s
	}
	return out
}

var scaleOp = op{back: scaleBack}

func scaleBack(out *Tensor) {
	a := out.prev[0]
	if !a.needGrad {
		return
	}
	a.ensureGrad()
	for i := range out.Grad {
		a.Grad[i] += out.Grad[i] * out.s
	}
}
