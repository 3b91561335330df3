// Package nn is a compact reverse-mode automatic differentiation engine
// with the layers needed by the paper's seven training cases: dense (MLP)
// stacks with optional residual connections, LSTM recurrences, embeddings,
// and classification / regression / language-model losses, trained by SGD.
//
// It exists because the convergence experiments (Figs. 9, 11, 13, 16, 17)
// need *real* gradients — heavy-tailed magnitudes whose interaction with
// top-k selection and residual feedback is the phenomenon under study —
// rather than synthetic noise. Everything is float32, matching the wire
// format of the communication layer.
package nn

import (
	"fmt"
	"math/rand"
)

// Tensor is a 2-D matrix node in the autograd graph. Vectors are 1×C rows.
// A tensor created with NeedGrad participates in backpropagation; gradients
// accumulate in Grad. A tensor a model's Loss builds lives on the model's
// tape (tape.go) and is valid until that model's next Loss; after
// Backward, an output no backward step reads has no Data (the loss keeps
// its own).
type Tensor struct {
	R, C int
	Data []float32
	Grad []float32

	needGrad bool
	prev     []*Tensor
	in       [3]*Tensor // prev's storage
	op       *op        // nil on leaves
	seen     bool       // topoSort's mark, false between sorts
	keep     bool       // Backward's mark: a backward step reads Data

	// Per-op storage, owned by the node and reused with it: buf holds Data
	// (except on a borrowed input), ints an op's ids or labels, aux
	// CrossEntropy's probabilities or MSE's targets, s Scale's factor or
	// CrossEntropy's label count.
	tape *tape
	buf  []float32
	ints []int
	aux  []float32
	s    float32

	// means is a loss node's value as MeanLoss reads it (see Means); a
	// one-mean loss appends to mean, so recording it allocates nothing.
	means []Mean
	mean  [1]Mean
}

// Zeros allocates an R×C tensor that does not require gradients.
func Zeros(r, c int) *Tensor {
	return &Tensor{R: r, C: c, Data: make([]float32, r*c)}
}

// FromSlice wraps data (length r·c, not copied) as a constant input tensor.
func FromSlice(r, c int, data []float32) *Tensor {
	checkLen("FromSlice", r, c, len(data))
	return &Tensor{R: r, C: c, Data: data}
}

func checkLen(name string, r, c, n int) {
	if n != r*c {
		panic(fmt.Sprintf("nn: %s %dx%d needs %d values, got %d", name, r, c, r*c, n))
	}
}

// NewParam allocates an R×C trainable parameter initialized by init(i),
// where i is the flat element index.
func NewParam(r, c int, init func(i int) float32) *Tensor {
	t := &Tensor{R: r, C: c, Data: make([]float32, r*c), Grad: make([]float32, r*c), needGrad: true}
	for i := range t.Data {
		t.Data[i] = init(i)
	}
	return t
}

// GlorotInit returns a Xavier/Glorot-uniform initializer for a fanIn×fanOut
// layer, deterministic for a given rng.
func GlorotInit(rng *rand.Rand, fanIn, fanOut int) func(int) float32 {
	limit := float32(2.449489742783178) / float32(sqrt32(float32(fanIn+fanOut))) // sqrt(6)/sqrt(fanIn+fanOut)
	return func(int) float32 { return (2*rng.Float32() - 1) * limit }
}

func sqrt32(v float32) float32 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 24; i++ {
		x = 0.5 * (x + v/x)
	}
	return x
}

// At returns element (i, j).
func (t *Tensor) At(i, j int) float32 { return t.Data[i*t.C+j] }

// Len returns the number of elements.
func (t *Tensor) Len() int { return t.R * t.C }

// NeedGrad reports whether the tensor participates in backpropagation.
func (t *Tensor) NeedGrad() bool { return t.needGrad }

// ensureGrad gives an interior node a cleared gradient buffer the first
// time the backward pass writes to it, so a forward-only pass (evaluation)
// never pays for gradients; parameters are born with theirs.
func (t *Tensor) ensureGrad() {
	if t.Grad == nil {
		t.Grad = t.tape.grad(t.R * t.C)
	}
}

// op is an operation's backward step, and which Data besides the stored
// per-op values (Tensor.ints, aux, s) the step reads: its inputs', its
// own output's, or none.
type op struct {
	back                     func(out *Tensor)
	readsInputs, readsOutput bool
}

// newResult builds an r×c output node of o wired to its inputs, on the
// tape of the first input that has one: its Data holds whatever the tape
// left there, so the op must write all of it. The node needs a gradient
// if any input does.
func newResult(r, c int, o *op, inputs ...*Tensor) *Tensor {
	var out *Tensor
	for _, in := range inputs {
		if in.tape != nil {
			out = in.tape.node(r, c)
			break
		}
	}
	if out == nil {
		out = &Tensor{R: r, C: c, Data: make([]float32, r*c)}
	}
	out.prev = append(out.in[:0], inputs...)
	out.op = o
	for _, in := range inputs {
		if in.needGrad {
			out.needGrad = true
			break
		}
	}
	return out
}

// back runs the node's backward step: out.Grad into its inputs' gradients.
func (t *Tensor) back() { t.op.back(t) }

// Backward runs reverse-mode differentiation from t (which must be a 1×1
// scalar, typically a loss), accumulating into the Grad buffers of every
// parameter in the graph. On a tape, the outputs no backward step reads
// are lent to the pass's gradients first (lendUnread), and an interior
// node's gradient goes back to the tape as soon as the node's own
// backward step has run, its Grad nil again.
func (t *Tensor) Backward() {
	if t.R != 1 || t.C != 1 {
		panic("nn: Backward requires a scalar (1x1) tensor")
	}
	order := topoSort(t)
	lendUnread(order, t)
	t.ensureGrad()
	t.Grad[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.op == nil || !n.needGrad { // otherwise no input wants a gradient
			continue
		}
		n.ensureGrad()
		n.back()
		if n.tape != nil {
			n.tape.release(n.Grad)
			n.Grad = nil
		}
	}
}

// frame is one node of topoSort's depth-first walk and its next input.
type frame struct {
	node *Tensor
	next int
}

// topoSort returns the graph nodes reachable from root in topological
// order (inputs before outputs: the walk's post-order), iteratively to
// keep deep LSTM graphs from exhausting the goroutine stack. On a tape the
// result is the tape's, valid until its next sort.
func topoSort(root *Tensor) []*Tensor {
	var order []*Tensor
	var stack []frame
	if tp := root.tape; tp != nil {
		order, stack = tp.order[:0], tp.stack[:0]
	}
	stack = append(stack, frame{root, 0})
	root.seen = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.node.prev) {
			child := f.node.prev[f.next]
			f.next++
			if !child.seen {
				child.seen = true
				stack = append(stack, frame{child, 0})
			}
			continue
		}
		order = append(order, f.node)
		stack = stack[:len(stack)-1]
	}
	for _, n := range order {
		n.seen = false
	}
	if tp := root.tape; tp != nil {
		tp.order, tp.stack = order, stack
	}
	return order
}

// ZeroGrad clears the gradient buffer in place.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}
