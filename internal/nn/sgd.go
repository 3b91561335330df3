package nn

import "fmt"

// ParamCount returns the total number of scalar parameters.
func ParamCount(params []*Tensor) int {
	n := 0
	for _, p := range params {
		n += p.Len()
	}
	return n
}

// PackParams moves every parameter's values and gradient into two
// contiguous slabs, data and grad, each of length ParamCount(params):
// params[i] gets the range GradSegments gives it, its Data and Grad are
// re-pointed there and keep their contents. From then on grad is the
// flattened gradient in place — backward accumulates straight into it, one
// clear zeroes every parameter's gradient, and it can be handed to the
// communication layer without a copy. Each tensor must appear once.
func PackParams(params []*Tensor) (data, grad []float32) {
	n := ParamCount(params)
	data, grad = make([]float32, n), make([]float32, n)
	off := 0
	for _, p := range params {
		end := off + p.Len()
		d, g := data[off:end:end], grad[off:end:end]
		copy(d, p.Data)
		copy(g, p.Grad)
		p.Data, p.Grad = d, g
		off = end
	}
	return data, grad
}

// FlattenGrads concatenates every parameter's gradient into out, which must
// have length ParamCount(params). A trainer whose parameters are packed
// (PackParams) reads the grad slab instead and never needs this copy.
func FlattenGrads(params []*Tensor, out []float32) {
	off := 0
	for _, p := range params {
		copy(out[off:off+p.Len()], p.Grad)
		off += p.Len()
	}
	if off != len(out) {
		panic(fmt.Sprintf("nn: FlattenGrads wrote %d of %d values", off, len(out)))
	}
}

// ZeroGrads clears every parameter gradient.
func ZeroGrads(params []*Tensor) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// FlattenParams concatenates every parameter's values into out, which must
// have length ParamCount(params) — the boundary snapshot an elastic trainer
// carries across a re-rendezvous.
func FlattenParams(params []*Tensor, out []float32) {
	off := 0
	for _, p := range params {
		copy(out[off:off+p.Len()], p.Data)
		off += p.Len()
	}
	if off != len(out) {
		panic(fmt.Sprintf("nn: FlattenParams wrote %d of %d values", off, len(out)))
	}
}

// LoadParams writes a FlattenParams snapshot back into the parameters.
func LoadParams(params []*Tensor, flat []float32) {
	off := 0
	for _, p := range params {
		copy(p.Data, flat[off:off+p.Len()])
		off += p.Len()
	}
	if off != len(flat) {
		panic(fmt.Sprintf("nn: LoadParams read %d of %d values", off, len(flat)))
	}
}

// SGD is stochastic gradient descent with optional momentum. When every
// worker applies the identical synchronized update vector, replicas stay
// bit-identical — the trainer relies on this.
type SGD struct {
	LR       float32
	Momentum float32
	velocity []float32
}

// NewSGD builds the optimizer.
func NewSGD(lr, momentum float32) *SGD {
	return &SGD{LR: lr, Momentum: momentum}
}

// Velocity returns the live momentum buffer — nil before the first
// momentum step (and always for momentum-free SGD). Callers must treat it
// as read-only; elastic snapshots copy it.
func (s *SGD) Velocity() []float32 { return s.velocity }

// RestoreVelocity overwrites the momentum buffer with a snapshot taken
// from Velocity; nil resets to the fresh-start state. The restore is a
// plain copy — momentum is per-worker state independent of cluster size,
// so the same snapshot is valid across an elastic membership change.
func (s *SGD) RestoreVelocity(v []float32) {
	if v == nil {
		s.velocity = nil
		return
	}
	if s.velocity == nil {
		s.velocity = make([]float32, len(v))
	}
	if len(v) != len(s.velocity) {
		panic(fmt.Sprintf("nn: restoring %d velocity values over %d", len(v), len(s.velocity)))
	}
	copy(s.velocity, v)
}

// Step applies the (synchronized, flattened) gradient vector to the
// parameters: v = µ·v + g; w -= lr·v.
func (s *SGD) Step(params []*Tensor, grad []float32) { s.StepScaled(params, grad, 1) }

// StepScaled is Step on scale·grad — the trainer's 1/P averaging folded
// into the update pass. grad is left untouched; every scaled value is
// rounded to float32 before it enters the update, so the result is
// bit-equal to scaling grad in place first.
func (s *SGD) StepScaled(params []*Tensor, grad []float32, scale float32) {
	if want := ParamCount(params); len(grad) != want {
		panic(fmt.Sprintf("nn: SGD.Step got %d gradient values for %d parameters", len(grad), want))
	}
	if s.Momentum != 0 && s.velocity == nil {
		s.velocity = make([]float32, len(grad))
	}
	off := 0
	for _, p := range params {
		w := p.Data
		g := grad[off : off+len(w)]
		if s.Momentum == 0 {
			for i, gv := range g {
				w[i] -= s.LR * float32(gv*scale)
			}
		} else {
			momentumStep(w, s.velocity[off:off+len(w)], g, s.Momentum, scale, s.LR)
		}
		off += len(w)
	}
}

// momentumStep is one tensor's momentum update: v = mu·vel + g·scale,
// vel = v, w −= lr·v, for every i < len(w).
//
//spardl:hotpath
func momentumStep(w, vel, g []float32, mu, scale, lr float32) {
	vel, g = vel[:len(w)], g[:len(w)]
	if avx2 != nil {
		avx2.sgd(w, vel, g, mu, scale, lr)
		return
	}
	for i, gv := range g {
		v := mu*vel[i] + float32(gv*scale)
		vel[i] = v
		w[i] -= lr * v
	}
}
