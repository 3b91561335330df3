package nn

import (
	"fmt"
	"math/rand"
)

// Linear is a dense layer y = x·W + b.
type Linear struct {
	W, B *Tensor
}

// NewLinear builds a Glorot-initialized in→out dense layer.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	return &Linear{
		W: NewParam(in, out, GlorotInit(rng, in, out)),
		B: NewParam(1, out, func(int) float32 { return 0 }),
	}
}

// Apply runs the layer on x [B×in] as one node: the product, then the
// bias added to each of its rows in place — the bits of
// AddRow(MatMul(x, W), B) without the product's node and gradient.
func (l *Linear) Apply(x *Tensor) *Tensor {
	w, b := l.W, l.B
	if x.C != w.R || b.R != 1 || b.C != w.C {
		panic(fmt.Sprintf("nn: Linear shape mismatch %dx%d · %dx%d + %dx%d", x.R, x.C, w.R, w.C, b.R, b.C))
	}
	out := newResult(x.R, w.C, &linearOp, x, w, b)
	clear(out.Data)
	matmulInto(out.Data, x.Data, w.Data, x.R, x.C, w.C)
	for i := 0; i < len(out.Data); i += w.C {
		accumInto(out.Data[i:i+w.C], b.Data)
	}
	return out
}

var linearOp = op{back: linearBack, readsInputs: true}

// linearBack runs the bias gradient, then MatMul's dA and dB, all from
// out.Grad.
func linearBack(out *Tensor) {
	biasBack(out.prev[2], out.Grad)
	matmulBack(out)
}

// Params returns the trainable tensors.
func (l *Linear) Params() []*Tensor { return []*Tensor{l.W, l.B} }

// LSTMCell is a standard long short-term memory cell with input, forget,
// output and candidate gates (Hochreiter & Schmidhuber, the architecture of
// the paper's Case 5/6 models).
type LSTMCell struct {
	Hidden         int
	Wi, Ui, Wf, Uf *Tensor
	Wo, Uo, Wg, Ug *Tensor
	Bi, Bf, Bo, Bg *Tensor
	paramList      []*Tensor
}

// NewLSTMCell builds an in→hidden LSTM cell. The forget-gate bias starts at
// +1, the usual trick for stable early training.
func NewLSTMCell(rng *rand.Rand, in, hidden int) *LSTMCell {
	mk := func(r, c int) *Tensor { return NewParam(r, c, GlorotInit(rng, r, c)) }
	c := &LSTMCell{
		Hidden: hidden,
		Wi:     mk(in, hidden), Ui: mk(hidden, hidden),
		Wf: mk(in, hidden), Uf: mk(hidden, hidden),
		Wo: mk(in, hidden), Uo: mk(hidden, hidden),
		Wg: mk(in, hidden), Ug: mk(hidden, hidden),
		Bi: NewParam(1, hidden, func(int) float32 { return 0 }),
		Bf: NewParam(1, hidden, func(int) float32 { return 1 }),
		Bo: NewParam(1, hidden, func(int) float32 { return 0 }),
		Bg: NewParam(1, hidden, func(int) float32 { return 0 }),
	}
	c.paramList = []*Tensor{c.Wi, c.Ui, c.Bi, c.Wf, c.Uf, c.Bf, c.Wo, c.Uo, c.Bo, c.Wg, c.Ug, c.Bg}
	return c
}

// Step advances the recurrence by one timestep: given input x [B×in] and
// state (h, c) [B×hidden], it returns the next state.
func (l *LSTMCell) Step(x, h, c *Tensor) (hNext, cNext *Tensor) {
	gate := func(w, u, b *Tensor) *Tensor {
		return AddRow(Add(MatMul(x, w), MatMul(h, u)), b)
	}
	i := Sigmoid(gate(l.Wi, l.Ui, l.Bi))
	f := Sigmoid(gate(l.Wf, l.Uf, l.Bf))
	o := Sigmoid(gate(l.Wo, l.Uo, l.Bo))
	g := Tanh(gate(l.Wg, l.Ug, l.Bg))
	cNext = Add(Mul(f, c), Mul(i, g))
	hNext = Mul(o, Tanh(cNext))
	return hNext, cNext
}

// Params returns the trainable tensors.
func (l *LSTMCell) Params() []*Tensor { return l.paramList }
