package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestParamCountAndFlatten(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLPClassifier(rng, []int{4, 5, 3})
	want := 4*5 + 5 + 5*3 + 3
	if got := ParamCount(m.Params()); got != want {
		t.Fatalf("ParamCount = %d, want %d", got, want)
	}
	batch := &Batch{X: randInput(rng, 2, 4), Features: 4, Labels: []int{0, 1}}
	loss, _ := m.Loss(batch)
	loss.Backward()
	flat := make([]float32, want)
	FlattenGrads(m.Params(), flat)
	nz := 0
	for _, v := range flat {
		if v != 0 {
			nz++
		}
	}
	if nz == 0 {
		t.Fatal("flattened gradient is all zero after backward")
	}
	ZeroGrads(m.Params())
	FlattenGrads(m.Params(), flat)
	for _, v := range flat {
		if v != 0 {
			t.Fatal("ZeroGrads did not clear gradients")
		}
	}
}

func TestSGDMomentumStep(t *testing.T) {
	p := NewParam(1, 2, func(i int) float32 { return 1 })
	opt := NewSGD(0.1, 0.9)
	opt.Step([]*Tensor{p}, []float32{1, 2})
	if p.Data[0] != 0.9 || p.Data[1] != 0.8 {
		t.Fatalf("after step 1: %v", p.Data)
	}
	// v = 0.9·g_prev + g → 1.9 and 3.8
	opt.Step([]*Tensor{p}, []float32{1, 2})
	if d := p.Data[0] - (0.9 - 0.1*1.9); d > 1e-6 || d < -1e-6 {
		t.Fatalf("momentum wrong: %v", p.Data)
	}
}

// refScaleAndStep is the update as the trainer and SGD.Step used to do it:
// one sweep scaling the gradient in place, then a per-element momentum
// branch re-indexing the velocity — the oracle for StepScaled.
func refScaleAndStep(lr, momentum float32, velocity *[]float32, params []*Tensor, grad []float32, scale float32) {
	for i := range grad {
		grad[i] *= scale
	}
	if momentum != 0 && *velocity == nil {
		*velocity = make([]float32, len(grad))
	}
	off := 0
	for _, p := range params {
		for i := 0; i < p.Len(); i++ {
			g := grad[off+i]
			if momentum != 0 {
				(*velocity)[off+i] = momentum*(*velocity)[off+i] + g
				g = (*velocity)[off+i]
			}
			p.Data[i] -= lr * g
		}
		off += p.Len()
	}
}

func TestStepScaledMatchesScaleThenStep(t *testing.T) {
	for _, p := range hostPaths() {
		for _, momentum := range []float32{0, 0.9} {
			for _, scale := range []float32{1, 0.25, 1.0 / 3} {
				rng := rand.New(rand.NewSource(11))
				shapes := [][2]int{{7, 5}, {1, 5}, {5, 3}, {1, 1}}
				var got, want []*Tensor
				for _, sh := range shapes {
					init := randInput(rng, sh[0], sh[1])
					got = append(got, NewParam(sh[0], sh[1], func(i int) float32 { return init[i] }))
					want = append(want, NewParam(sh[0], sh[1], func(i int) float32 { return init[i] }))
				}
				PackParams(got) // as the trainer runs it; tensors then start at offsets 0, 3 and 7 mod 8
				opt := NewSGD(0.05, momentum)
				var refVelocity []float32
				for step := 0; step < 3; step++ {
					grad := heavyTailed(rng, ParamCount(got))
					kept := slices.Clone(grad)
					onPath(p, func() { opt.StepScaled(got, grad, scale) })
					if i := sameBits(grad, kept); i >= 0 {
						t.Fatalf("%s: StepScaled wrote to its gradient argument at %d", pathName(p), i)
					}
					refScaleAndStep(0.05, momentum, &refVelocity, want, grad, scale)
					for pi := range got {
						if i := sameBits(got[pi].Data, want[pi].Data); i >= 0 {
							t.Fatalf("%s µ=%g scale=%g step %d: param %d elem %d = %x, oracle %x", pathName(p), momentum, scale, step, pi, i,
								math.Float32bits(got[pi].Data[i]), math.Float32bits(want[pi].Data[i]))
						}
					}
					if i := sameBits(opt.Velocity(), refVelocity); i >= 0 || len(opt.Velocity()) != len(refVelocity) {
						t.Fatalf("%s µ=%g scale=%g step %d: velocity differs at %d", pathName(p), momentum, scale, step, i)
					}
				}
			}
		}
	}
}

// TestPackParams: packing keeps every value and gradient, lays them out in
// Params() order — the grad slab is what FlattenGrads builds — and leaves
// backward accumulating into the slabs.
func TestPackParams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewResMLPClassifier(rng, 6, 9, 2, 4)
	params := m.Params()
	batch := &Batch{X: randInput(rng, 5, 6), Features: 6, Labels: []int{0, 1, 2, 3, 1}}
	loss, _ := m.Loss(batch)
	loss.Backward()
	n := ParamCount(params)
	wantData, wantGrad := make([]float32, n), make([]float32, n)
	FlattenParams(params, wantData)
	FlattenGrads(params, wantGrad)
	data, grad := PackParams(params)
	if i := sameBits(data, wantData); i >= 0 || len(data) != n {
		t.Fatalf("data slab differs from FlattenParams at %d", i)
	}
	if i := sameBits(grad, wantGrad); i >= 0 || len(grad) != n {
		t.Fatalf("grad slab differs from FlattenGrads at %d", i)
	}
	clear(grad)
	loss, _ = m.Loss(batch)
	loss.Backward()
	if i := sameBits(grad, wantGrad); i >= 0 {
		t.Fatalf("backward after a clear of the packed slab differs at %d", i)
	}
	for _, s := range GradSegments(params) {
		if &s.Param.Data[0] != &data[s.Lo] || &s.Param.Grad[0] != &grad[s.Lo] || cap(s.Param.Grad) != s.Len() {
			t.Fatalf("param at [%d, %d) does not own its slab range", s.Lo, s.Hi)
		}
	}
}

// The MLP must learn a simple separable problem quickly — the substrate
// sanity check underlying every convergence experiment.
func TestMLPLearnsSeparableTask(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewMLPClassifier(rng, []int{8, 16, 2})
	opt := NewSGD(0.2, 0.9)
	n := ParamCount(m.Params())
	flat := make([]float32, n)
	var lastAcc float64
	for step := 0; step < 200; step++ {
		const bs = 16
		x := make([]float32, bs*8)
		labels := make([]int, bs)
		for b := 0; b < bs; b++ {
			var sum float32
			for j := 0; j < 8; j++ {
				v := float32(rng.NormFloat64())
				x[b*8+j] = v
				if j < 4 {
					sum += v
				} else {
					sum -= v
				}
			}
			if sum > 0 {
				labels[b] = 1
			}
		}
		batch := &Batch{X: x, Features: 8, Labels: labels}
		ZeroGrads(m.Params())
		loss, acc := m.Loss(batch)
		loss.Backward()
		FlattenGrads(m.Params(), flat)
		opt.Step(m.Params(), flat)
		lastAcc = acc
	}
	if lastAcc < 0.85 {
		t.Fatalf("MLP failed to learn: final accuracy %.2f", lastAcc)
	}
}

// The LSTM must learn to detect a marker token anywhere in the sequence —
// a task that requires carrying state across timesteps.
func TestLSTMLearnsMarkerDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := NewLSTMClassifier(rng, 10, 8, 12, 2)
	opt := NewSGD(0.3, 0.9)
	flat := make([]float32, ParamCount(m.Params()))
	var lastAcc float64
	for step := 0; step < 250; step++ {
		const bs, T = 12, 8
		tokens := make([][]int, bs)
		labels := make([]int, bs)
		for b := range tokens {
			tokens[b] = make([]int, T)
			for t := range tokens[b] {
				tokens[b][t] = 1 + rng.Intn(8) // tokens 1..8, never 9
			}
			if rng.Intn(2) == 1 {
				tokens[b][rng.Intn(T)] = 9 // plant the marker
				labels[b] = 1
			}
		}
		batch := &Batch{Tokens: tokens, Labels: labels}
		ZeroGrads(m.Params())
		loss, acc := m.Loss(batch)
		loss.Backward()
		FlattenGrads(m.Params(), flat)
		opt.Step(m.Params(), flat)
		lastAcc = acc
	}
	if lastAcc < 0.8 {
		t.Fatalf("LSTM failed to learn marker detection: final accuracy %.2f", lastAcc)
	}
}

func TestArgmax(t *testing.T) {
	logits := FromSlice(2, 3, []float32{0.1, 0.9, 0.3, 2, -1, 0})
	got := Argmax(logits)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("Argmax = %v", got)
	}
}

func TestCrossEntropyIgnoresNegativeLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := NewParam(3, 4, GlorotInit(rng, 3, 4))
	x := randInput(rng, 3, 3)
	all := CrossEntropy(MatMul(FromSlice(3, 3, x), w), []int{1, 2, 3})
	masked := CrossEntropy(MatMul(FromSlice(3, 3, x), w), []int{1, -1, -1})
	only := CrossEntropy(MatMul(FromSlice(1, 3, x[:3]), w), []int{1})
	if d := masked.Data[0] - only.Data[0]; d > 1e-5 || d < -1e-5 {
		t.Fatalf("masked CE %g != single-row CE %g", masked.Data[0], only.Data[0])
	}
	if all.Data[0] == masked.Data[0] {
		t.Fatal("mask had no effect")
	}
}
