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
// accumulate in Grad.
type Tensor struct {
	R, C int
	Data []float32
	Grad []float32

	needGrad bool
	prev     []*Tensor
	back     func()
}

// Zeros allocates an R×C tensor that does not require gradients.
func Zeros(r, c int) *Tensor {
	return &Tensor{R: r, C: c, Data: make([]float32, r*c)}
}

// FromSlice wraps data (length r·c, not copied) as a constant input tensor.
func FromSlice(r, c int, data []float32) *Tensor {
	if len(data) != r*c {
		panic(fmt.Sprintf("nn: FromSlice %dx%d needs %d values, got %d", r, c, r*c, len(data)))
	}
	return &Tensor{R: r, C: c, Data: data}
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

// ensureGrad allocates an interior node's gradient buffer the first time
// the backward pass writes to it, so a forward-only pass (evaluation)
// never pays for gradients; parameters are born with theirs.
func (t *Tensor) ensureGrad() {
	if t.Grad == nil {
		t.Grad = make([]float32, t.R*t.C)
	}
}

// newResult builds an op output node wired to its inputs. The node needs a
// gradient if any input does.
func newResult(r, c int, inputs ...*Tensor) *Tensor {
	out := &Tensor{R: r, C: c, Data: make([]float32, r*c), prev: inputs}
	for _, in := range inputs {
		if in.needGrad {
			out.needGrad = true
			break
		}
	}
	return out
}

// Backward runs reverse-mode differentiation from t (which must be a 1×1
// scalar, typically a loss), accumulating into the Grad buffers of every
// parameter in the graph.
func (t *Tensor) Backward() {
	if t.R != 1 || t.C != 1 {
		panic("nn: Backward requires a scalar (1x1) tensor")
	}
	order := topoSort(t)
	t.ensureGrad()
	t.Grad[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		if n := order[i]; n.back != nil && n.needGrad { // otherwise no input wants a gradient
			n.ensureGrad()
			n.back()
		}
	}
}

// topoSort returns the graph nodes reachable from root in topological
// order (inputs before outputs), iteratively to keep deep LSTM graphs from
// exhausting the goroutine stack.
func topoSort(root *Tensor) []*Tensor {
	var order []*Tensor
	state := map[*Tensor]int{} // 0 unseen, 1 in progress, 2 done
	type frame struct {
		node *Tensor
		next int
	}
	stack := []frame{{root, 0}}
	state[root] = 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.node.prev) {
			child := f.node.prev[f.next]
			f.next++
			if state[child] == 0 {
				state[child] = 1
				stack = append(stack, frame{child, 0})
			}
			continue
		}
		state[f.node] = 2
		order = append(order, f.node)
		stack = stack[:len(stack)-1]
	}
	return order
}

// ZeroGrad clears the gradient buffer in place.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}
