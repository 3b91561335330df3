package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// checkGrads verifies analytic gradients against central finite differences
// for a sample of parameter coordinates. forward must rebuild the graph
// from scratch (parameters are shared; inputs may be cached by the
// closure).
func checkGrads(t *testing.T, rng *rand.Rand, params []*Tensor, forward func() *Tensor, samples int) {
	t.Helper()
	ZeroGrads(params)
	loss := forward()
	loss.Backward()
	analytic := make([][]float32, len(params))
	for i, p := range params {
		analytic[i] = append([]float32(nil), p.Grad...)
	}
	numericAt := func(p *Tensor, ei int, eps float32) float64 {
		old := p.Data[ei]
		p.Data[ei] = old + eps
		lp := float64(forward().Data[0])
		p.Data[ei] = old - eps
		lm := float64(forward().Data[0])
		p.Data[ei] = old
		return (lp - lm) / (2 * float64(eps))
	}
	for s := 0; s < samples; s++ {
		pi := rng.Intn(len(params))
		p := params[pi]
		ei := rng.Intn(p.Len())
		got := float64(analytic[pi][ei])
		ok := false
		// A finite-difference step can hop a ReLU kink and corrupt the
		// numeric estimate; shrinking eps makes kink crossings vanish while
		// a genuine gradient bug fails at every eps.
		for _, eps := range []float32{1e-2, 2e-3, 5e-4} {
			numeric := numericAt(p, ei, eps)
			diff := math.Abs(numeric - got)
			scale := math.Max(1e-2, math.Max(math.Abs(numeric), math.Abs(got)))
			if diff/scale <= 0.08 {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("param %d elem %d: analytic %g vs numeric %g at every eps",
				pi, ei, got, numericAt(p, ei, 1e-2))
		}
	}
}

func randInput(rng *rand.Rand, r, c int) []float32 {
	d := make([]float32, r*c)
	for i := range d {
		d[i] = float32(rng.NormFloat64())
	}
	return d
}

func TestGradMatMulAddReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w1 := NewParam(4, 5, GlorotInit(rng, 4, 5))
	b1 := NewParam(1, 5, func(int) float32 { return 0.1 })
	w2 := NewParam(5, 3, GlorotInit(rng, 5, 3))
	x := randInput(rng, 6, 4)
	labels := []int{0, 1, 2, 0, 1, 2}
	forward := func() *Tensor {
		h := ReLU(AddRow(MatMul(FromSlice(6, 4, x), w1), b1))
		return CrossEntropy(MatMul(h, w2), labels)
	}
	checkGrads(t, rng, []*Tensor{w1, b1, w2}, forward, 40)
}

func TestGradTanhSigmoidMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w1 := NewParam(3, 4, GlorotInit(rng, 3, 4))
	w2 := NewParam(3, 4, GlorotInit(rng, 3, 4))
	w3 := NewParam(4, 2, GlorotInit(rng, 4, 2))
	x := randInput(rng, 5, 3)
	labels := []int{0, 1, 0, 1, 1}
	forward := func() *Tensor {
		in := FromSlice(5, 3, x)
		g := Mul(Tanh(MatMul(in, w1)), Sigmoid(MatMul(in, w2)))
		return CrossEntropy(MatMul(g, w3), labels)
	}
	checkGrads(t, rng, []*Tensor{w1, w2, w3}, forward, 40)
}

func TestGradMSEScaleAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := NewParam(4, 1, GlorotInit(rng, 4, 1))
	b := NewParam(1, 1, func(int) float32 { return 0 })
	x := randInput(rng, 7, 4)
	targets := randInput(rng, 7, 1)
	forward := func() *Tensor {
		p := AddRow(MatMul(FromSlice(7, 4, x), w), b)
		return Scale(Add(MSE(p, targets), MSE(p, targets)), 0.5)
	}
	checkGrads(t, rng, []*Tensor{w, b}, forward, 20)
}

func TestGradEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	embed := NewParam(9, 6, GlorotInit(rng, 9, 6))
	head := NewParam(6, 3, GlorotInit(rng, 6, 3))
	ids := []int{0, 3, 8, 3, 5}
	labels := []int{0, 1, 2, 1, 0}
	forward := func() *Tensor {
		return CrossEntropy(MatMul(Embed(embed, ids), head), labels)
	}
	checkGrads(t, rng, []*Tensor{embed, head}, forward, 30)
}

func TestGradLSTMCell(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cell := NewLSTMCell(rng, 3, 4)
	head := NewLinear(rng, 4, 2)
	xs := [][]float32{randInput(rng, 2, 3), randInput(rng, 2, 3), randInput(rng, 2, 3)}
	labels := []int{0, 1}
	params := append(append([]*Tensor{}, cell.Params()...), head.Params()...)
	forward := func() *Tensor {
		h, c := Zeros(2, 4), Zeros(2, 4)
		for _, x := range xs {
			h, c = cell.Step(FromSlice(2, 3, x), h, c)
		}
		return CrossEntropy(head.Apply(h), labels)
	}
	checkGrads(t, rng, params, forward, 40)
}

type modelCase struct {
	name  string
	model Model
	batch *Batch
}

// gradModelCases builds one small instance of every model in the package
// with a batch for it, deterministically.
func gradModelCases() []modelCase {
	rng := rand.New(rand.NewSource(6))
	x := randInput(rng, 4, 6)
	tokens := [][]int{{1, 2, 3}, {4, 5, 6}, {0, 2, 4}, {7, 1, 0}}
	return []modelCase{
		{
			"MLPClassifier",
			NewMLPClassifier(rng, []int{6, 8, 3}),
			&Batch{X: x, Features: 6, Labels: []int{0, 1, 2, 0}},
		},
		{
			"MLPRegressor",
			NewMLPRegressor(rng, []int{6, 8, 1}),
			&Batch{X: x, Features: 6, Targets: []float32{0.5, -1, 0, 2}},
		},
		{
			"ResMLPClassifier",
			NewResMLPClassifier(rng, 6, 8, 2, 3),
			&Batch{X: x, Features: 6, Labels: []int{0, 1, 2, 0}},
		},
		{
			"LSTMClassifier",
			NewLSTMClassifier(rng, 8, 4, 5, 2),
			&Batch{Tokens: tokens, Labels: []int{0, 1, 1, 0}},
		},
		{
			"LSTMLM",
			NewLSTMLM(rng, 8, 4, 5),
			&Batch{Tokens: tokens, NextTokens: [][]int{{2, 3, 4}, {5, 6, 7}, {2, 4, 6}, {1, 0, 2}}},
		},
		{
			"BERTLike",
			NewBERTLike(rng, 8, 6, 2),
			&Batch{Tokens: tokens, MaskLabels: [][]int{{-1, 5, -1}, {2, -1, -1}, {-1, -1, 3}, {-1, 4, -1}}},
		},
	}
}

func TestGradModels(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, tc := range gradModelCases() {
		t.Run(tc.name, func(t *testing.T) {
			forward := func() *Tensor {
				loss, _ := tc.model.Loss(tc.batch)
				return loss
			}
			checkGrads(t, rng, tc.model.Params(), forward, 25)
		})
	}
}

// gradBitsHash is FNV-1a over the Float32bits of every parameter gradient.
func gradBitsHash(params []*Tensor) uint64 {
	h := fnv.New64a()
	var w [4]byte
	for _, p := range params {
		for _, g := range p.Grad {
			binary.LittleEndian.PutUint32(w[:], math.Float32bits(g))
			h.Write(w[:])
		}
	}
	return h.Sum64()
}

// A forward pass allocates no gradient storage — evaluation never reads
// any — and deferring the allocation to Backward changes no gradient bit:
// not against a backward pass whose interior buffers all exist up front
// (how every node was born before), and not against the hashes recorded
// at the commit before the change.
func TestForwardAllocatesNoGradients(t *testing.T) {
	pinned := map[string]uint64{ // amd64; other architectures may fuse multiply-add
		"MLPClassifier":    0xd6bc0355840669c0,
		"MLPRegressor":     0x15ba9e456b8ade73,
		"ResMLPClassifier": 0xe32d59efe1891fe0,
		"LSTMClassifier":   0x6ef65125ee56d6c0,
		"LSTMLM":           0x7c82661db045c632,
		"BERTLike":         0xdddc3082d7ca51c1,
	}
	for _, tc := range gradModelCases() {
		t.Run(tc.name, func(t *testing.T) {
			params := tc.model.Params()
			isParam := map[*Tensor]bool{}
			for _, p := range params {
				isParam[p] = true
			}
			loss, _ := tc.model.Loss(tc.batch)
			interior := 0
			for _, n := range topoSort(loss) {
				if isParam[n] {
					continue
				}
				interior++
				if n.Grad != nil {
					t.Fatalf("forward pass allocated the gradient of a %dx%d interior node", n.R, n.C)
				}
			}
			if interior == 0 {
				t.Fatal("graph has no interior nodes")
			}
			ZeroGrads(params)
			loss.Backward()
			lazy := gradBitsHash(params)

			ZeroGrads(params)
			loss, _ = tc.model.Loss(tc.batch)
			for _, n := range topoSort(loss) {
				if n.needGrad {
					n.ensureGrad()
				}
			}
			loss.Backward()
			if eager := gradBitsHash(params); eager != lazy {
				t.Fatalf("gradients differ with pre-allocated interior buffers: %#x vs %#x", eager, lazy)
			}
			if runtime.GOARCH == "amd64" && lazy != pinned[tc.name] {
				t.Fatalf("gradient hash %#x, recorded %#x", lazy, pinned[tc.name])
			}
		})
	}
}
