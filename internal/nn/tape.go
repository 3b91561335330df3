package nn

import "math"

// tape is one model's per-pass memory. The model's Loss rewinds it at the
// start of every pass, and op i of the pass gets back the node — struct,
// output buffer and per-op storage — that op i had on the previous pass;
// a buffer grows only when it is too small. Ops find the tape through
// their inputs, since the model's parameters carry it, so a graph built
// from parameters that belong to no model allocates every node afresh.
//
// A node's output is not cleared on reuse: every op writes all of it, and
// MatMul and Linear, whose kernels accumulate, clear their own. Backward
// lends the outputs no backward step reads to the free list; interior
// gradients come from it, cleared, and go back to it as soon as their
// node's backward has run, so the gradients of one pass live in buffers
// its forward pass has finished with. An output lent out is taken back
// from the free list on the next pass.
//
// Everything the tape hands out is valid until the model's next Loss. A
// -race build keeps two generations of nodes and alternates them: a rewind
// fills the last pass's buffers with NaN before the pass that follows it,
// so a tensor read after that pass reads NaN instead of the wrong pass's
// values, and a freed gradient is poisoned the same way.
type tape struct {
	gens [2][]*Tensor // node i of a generation is op i's; only -race uses gens[1]
	gen  int
	used int // nodes handed out since the last rewind

	free  [][]float32 // buffers no node holds, at full capacity
	gradA []float32   // gradABlocks' interleaved block and sums

	order []*Tensor // topoSort's result and stack
	stack []frame
}

// newTape gives params (one model's) a fresh tape.
func newTape(params []*Tensor) *tape {
	tp := &tape{}
	for _, p := range params {
		p.tape = tp
	}
	return tp
}

// rewind starts a pass: the next op gets node 0 back.
func (tp *tape) rewind() {
	if raceEnabled {
		for _, n := range tp.gens[tp.gen][:tp.used] {
			n.poison()
		}
		tp.gen ^= 1
	}
	tp.used = 0
}

// slot hands out the pass's next node, reset to a graph leaf with no
// output.
func (tp *tape) slot() *Tensor {
	nodes := &tp.gens[tp.gen]
	if tp.used == len(*nodes) {
		*nodes = append(*nodes, &Tensor{tape: tp})
	}
	n := (*nodes)[tp.used]
	tp.used++
	n.R, n.C, n.Data, n.Grad = 0, 0, nil, nil
	n.needGrad, n.prev, n.op = false, nil, nil
	n.means = n.means[:0]
	return n
}

// node hands out the next node with an r×c output from its own buffer,
// holding whatever the last pass left there.
func (tp *tape) node(r, c int) *Tensor {
	n := tp.slot()
	if cap(n.buf) < r*c {
		if n.buf != nil {
			tp.release(n.buf)
		}
		n.buf = tp.take(r * c)
	}
	n.R, n.C, n.Data = r, c, n.buf[:r*c]
	return n
}

// input is FromSlice on the tape: data is borrowed, never written.
func (tp *tape) input(r, c int, data []float32) *Tensor {
	checkLen("FromSlice", r, c, len(data))
	n := tp.slot()
	n.R, n.C, n.Data = r, c, data
	return n
}

// zeros is Zeros on the tape.
func (tp *tape) zeros(r, c int) *Tensor {
	n := tp.node(r, c)
	clear(n.Data)
	return n
}

// grad returns a cleared gradient buffer of n values. A nil tape always
// allocates.
func (tp *tape) grad(n int) []float32 {
	if tp == nil {
		return make([]float32, n)
	}
	g := tp.take(n)
	clear(g)
	return g
}

// take returns n values from the smallest free buffer that holds them,
// or from a new one, uncleared.
func (tp *tape) take(n int) []float32 {
	best := -1
	for i, b := range tp.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(tp.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]float32, n)
	}
	b, last := tp.free[best], len(tp.free)-1
	tp.free[best], tp.free[last] = tp.free[last], nil
	tp.free = tp.free[:last]
	return b[:n]
}

// release takes back a buffer no node reads any more.
func (tp *tape) release(b []float32) {
	b = b[:cap(b)]
	if raceEnabled {
		fillNaN(b)
	}
	tp.free = append(tp.free, b)
}

// lendUnread gives every output in order that no backward step reads —
// a Linear or Add output read only by ReLU, Add or CrossEntropy — back to
// its tape's free list, where the backward pass takes its gradients, and
// leaves its Data nil. root keeps its Data: callers read the loss.
func lendUnread(order []*Tensor, root *Tensor) {
	root.keep = true
	for _, n := range order {
		if n.op != nil {
			n.keep = n.keep || n.op.readsOutput
			for _, in := range n.prev {
				in.keep = in.keep || n.op.readsInputs
			}
		}
	}
	for _, n := range order {
		if !n.keep && n.buf != nil {
			n.tape.release(n.buf)
			n.buf, n.Data = nil, nil
		}
		n.keep = false
	}
}

// scratch is gradABlocks' working memory: the tape's, or a fresh one.
func (tp *tape) scratch() *[]float32 {
	if tp == nil {
		return new([]float32)
	}
	return &tp.gradA
}

// poison overwrites everything a node owns with values no pass produces:
// NaN outputs, per-op floats and mean sums, and ids past any vocabulary.
func (t *Tensor) poison() {
	fillNaN(t.buf[:cap(t.buf)])
	fillNaN(t.aux[:cap(t.aux)])
	ints := t.ints[:cap(t.ints)]
	for i := range ints {
		ints[i] = math.MaxInt32
	}
	for i := range t.means {
		t.means[i].Sum = math.NaN()
	}
	t.s = float32(math.NaN())
}

func fillNaN(v []float32) {
	nan := float32(math.NaN())
	for i := range v {
		v[i] = nan
	}
}
